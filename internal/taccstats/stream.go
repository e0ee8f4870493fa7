package taccstats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"

	"supremm/internal/procfs"
)

// Layout assigns every (type, device) pair that appears in one raw file
// a fixed column range inside a flat per-record value array. It is built
// incrementally while streaming: a type's schema line declares its keys,
// and a device claims its columns the first time it appears in a data
// line. Type and device names are interned once per file, so the hot
// parse loop performs no string allocation, and consumers can compile
// (type, device, key) paths down to plain integer indices once per file
// (the "schema compilation" the ingest metric plan performs).
//
// A file lists the same types and devices in the same order in every
// record, so the line after slot s is almost always slot s+1: next is
// that predicted slot, and a data line that starts with its type and
// device takes it without a map lookup.
type Layout struct {
	byName  map[string]*typeCols
	slots   []slotRef
	width   int
	version int
	next    int
	// replaced names the first type whose block a changed schema
	// replaced after the block had claimed devices (Replaced).
	replaced string
}

type typeCols struct {
	name   string
	schema procfs.Schema
	devs   []devCols
	byDev  map[string]int
	// replaced is set when a changed schema re-declares the type: its
	// slots keep their columns but are never predicted again.
	replaced bool
}

type devCols struct {
	dev  string
	off  int
	slot int
}

// slotRef identifies one (type, device) presence slot; records track
// per-slot presence so absent devices stay distinguishable from zeros.
type slotRef struct {
	t   *typeCols
	dev string
	off int
}

// starts returns the length of line's "type dev " prefix when line
// begins with this slot's type and device, compared in place, and 0
// when it does not.
func (s *slotRef) starts(line []byte) int {
	n, d := len(s.t.name), len(s.dev)
	if len(line) <= n+d+1 || line[n] != ' ' || line[n+d+1] != ' ' ||
		!hasPrefix(line, s.t.name) || !hasPrefix(line[n+1:], s.dev) {
		return 0
	}
	return n + d + 2
}

func newLayout() *Layout {
	return &Layout{byName: make(map[string]*typeCols)}
}

// Version increments whenever a new type or device claims columns;
// compiled plans use it to detect that they must be rebuilt.
func (l *Layout) Version() int { return l.version }

// Replaced names the first type that a changed schema re-declared
// after its column block had claimed devices, "" while none has. From
// then on Columns and Column resolve the type through the new block
// alone, which holds none of what the record being built had already
// read of it, and which the previous record's values are not in: no
// (type, key) path compiled against the layout reads the type across
// the change.
func (l *Layout) Replaced() string { return l.replaced }

// Width is the current length of the flat value array.
func (l *Layout) Width() int { return l.width }

// ColRef locates one key of one device in a record's flat value array.
type ColRef struct {
	Dev string
	Col int // index into Record.Flat; -1 when the key is absent
}

// Columns returns a ColRef for key on every device of typ seen so far,
// in first-appearance order. Devices whose schema lacks the key get
// Col = -1 so callers can still enumerate them by name.
func (l *Layout) Columns(typ, key string) []ColRef {
	tc := l.byName[typ]
	if tc == nil {
		return nil
	}
	ki := tc.schema.Index(key)
	out := make([]ColRef, 0, len(tc.devs))
	for _, d := range tc.devs {
		col := -1
		if ki >= 0 {
			col = d.off + ki
		}
		out = append(out, ColRef{Dev: d.dev, Col: col})
	}
	return out
}

// Column returns the flat index of (typ, dev, key), or -1 if any part of
// the path is unknown to this layout.
func (l *Layout) Column(typ, dev, key string) int {
	tc := l.byName[typ]
	if tc == nil {
		return -1
	}
	ki := tc.schema.Index(key)
	if ki < 0 {
		return -1
	}
	di, ok := tc.byDev[dev]
	if !ok {
		return -1
	}
	return tc.devs[di].off + ki
}

// registerType declares typ's schema. Re-declaring an identical schema
// is a no-op; a changed schema starts a fresh column block so columns
// already assigned keep their meaning for records parsed earlier.
func (l *Layout) registerType(name string, schema procfs.Schema) {
	if old := l.byName[name]; old != nil {
		if schemasEqual(old.schema, schema) {
			return
		}
		old.replaced = true
		if len(old.devs) > 0 && l.replaced == "" {
			l.replaced = name
		}
	}
	tc := &typeCols{name: name, schema: schema, byDev: make(map[string]int)}
	l.byName[name] = tc
	l.version++
}

// ensureDev returns the presence slot for dev, claiming new columns on
// first appearance.
func (tc *typeCols) ensureDev(l *Layout, dev []byte) int {
	if i, ok := tc.byDev[string(dev)]; ok {
		return tc.devs[i].slot
	}
	name := string(dev) //supremmlint:allow hotalloc: device name interned once on first appearance
	d := devCols{dev: name, off: l.width, slot: len(l.slots)}
	tc.byDev[name] = len(tc.devs)
	tc.devs = append(tc.devs, d)
	l.slots = append(l.slots, slotRef{t: tc, dev: name, off: d.off})
	l.width += len(tc.schema)
	l.version++
	return d.slot
}

func schemasEqual(a, b procfs.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ParseStream reads a raw file record by record, invoking fn for each
// complete record in file order. The Record passed to fn stores its
// values in a flat array described by its Layout and is reused between
// calls: it, its Flat array and its Layout-resolved reads are only valid
// until fn returns — callers that retain data must copy it. The
// returned File carries the header fields and schemas.
//
// This is the zero-allocation fast path: data lines are matched against
// the predicted slot and read in place from the scanner's byte buffer,
// values are parsed without any intermediate strings, and after the
// per-file layout has seen every (type, device) pair the steady-state
// loop allocates nothing.
func ParseStream(r io.Reader, fn func(*Record) error) (*File, error) {
	f := &File{Schemas: make(map[string]procfs.Schema)}
	lay := newLayout()
	sc := bufio.NewScanner(r)
	// Start from a recycled 64 KB buffer; the scanner grows on demand up
	// to 16 MB for pathological lines, so steady-state memory stays near
	// one line.
	buf := scanBufs.Get().(*[64 << 10]byte)
	defer scanBufs.Put(buf)
	sc.Buffer(buf[:], 16<<20)

	rec := Record{layout: lay}
	var flat []uint64
	var present []bool
	inRec := false
	lineNo := 0

	emit := func() error {
		if !inRec {
			return nil
		}
		inRec = false
		rec.flat = flat[:lay.width]
		rec.present = present
		return fn(&rec)
	}

	for sc.Scan() {
		lineNo++
		line := trimASCII(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		switch {
		case line[0] == '$':
			if err := f.parseHeaderBytes(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case line[0] == '!':
			name, schema, err := parseSchemaLine(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			f.Schemas[name] = schema
			lay.registerType(name, schema)
		case line[0] >= '0' && line[0] <= '9':
			// Timestamp line: deliver the previous record, start a new one.
			if err := emit(); err != nil {
				return nil, err
			}
			ts, mark, jobID, err := parseTimestampBytes(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			rec.Time, rec.Mark, rec.JobID = ts, mark, jobID
			if len(flat) < lay.width {
				flat = append(flat, make([]uint64, lay.width-len(flat))...)
			}
			clear(flat[:lay.width])
			if len(present) < len(lay.slots) {
				present = append(present, make([]bool, len(lay.slots)-len(present))...)
			}
			clear(present)
			lay.next = 0
			inRec = true
		default:
			if !inRec {
				return nil, fmt.Errorf("line %d: data before first timestamp", lineNo)
			}
			if err := parseDataBytes(line, lay, &flat, &present); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := emit(); err != nil {
		return nil, err
	}
	return f, nil
}

// scanBufs recycles ParseStream's scanner buffers across files and the
// goroutines that parse them. No slice of one outlives its parse.
var scanBufs = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// asciiSpace is the whitespace set the plain-text format can contain.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

func trimASCII(b []byte) []byte {
	for len(b) > 0 && asciiSpace[b[0]] {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace[b[len(b)-1]] {
		b = b[:len(b)-1]
	}
	return b
}

// nextField returns the next whitespace-delimited token at *i, advancing
// *i past it; nil when the line is exhausted.
func nextField(b []byte, i *int) []byte {
	j := *i
	for j < len(b) && asciiSpace[b[j]] {
		j++
	}
	if j >= len(b) {
		*i = j
		return nil
	}
	k := j
	for k < len(b) && !asciiSpace[b[k]] {
		k++
	}
	*i = k
	return b[j:k]
}

// parseUint64 parses base-10 digits with strconv.ParseUint semantics
// (no sign, overflow rejected) without allocating.
func parseUint64(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	const maxU = ^uint64(0)
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > maxU/10 {
			return 0, false
		}
		v *= 10
		d := uint64(c - '0')
		if v > maxU-d {
			return 0, false
		}
		v += d
	}
	return v, true
}

func parseInt64(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
	}
	u, ok := parseUint64(b)
	if !ok {
		return 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

func (f *File) parseHeaderBytes(line []byte) error {
	rest := line[1:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("malformed header %q", line)
	}
	key, val := rest[:sp], rest[sp+1:]
	switch string(key) {
	case "tacc_stats":
		f.Version = string(val) //supremmlint:allow hotalloc: header field retained, once per file
	case "hostname":
		f.Hostname = string(val) //supremmlint:allow hotalloc: header field retained, once per file
	case "arch":
		f.Arch = string(val) //supremmlint:allow hotalloc: header field retained, once per file
	default:
		// Unknown headers are tolerated (forward compatibility), as the
		// deployed parser does.
	}
	return nil
}

func parseTimestampBytes(line []byte) (ts int64, mark string, jobID int64, err error) {
	i := 0
	tsTok := nextField(line, &i)
	ts, ok := parseInt64(tsTok)
	if !ok {
		return 0, "", 0, fmt.Errorf("bad timestamp %q", tsTok)
	}
	markTok := nextField(line, &i)
	if markTok == nil {
		return ts, "", 0, nil
	}
	idTok := nextField(line, &i)
	if idTok == nil {
		if string(markTok) == "rotate" {
			return ts, "rotate", 0, nil
		}
		return 0, "", 0, fmt.Errorf("unknown bare mark %q", markTok)
	}
	if extra := nextField(line, &i); extra != nil {
		return 0, "", 0, fmt.Errorf("malformed timestamp line %q", line)
	}
	switch {
	case string(markTok) == "begin":
		mark = "begin"
	case string(markTok) == "end":
		mark = "end"
	default:
		return 0, "", 0, fmt.Errorf("unknown job mark %q", markTok)
	}
	jobID, ok = parseInt64(idTok)
	if !ok {
		return 0, "", 0, fmt.Errorf("bad job id %q", idTok)
	}
	return ts, mark, jobID, nil
}

// parseDataBytes parses "type device v0 v1 ..." directly from the
// scanner's buffer into the record's flat array. A line that starts
// "type dev " of the predicted slot takes that slot; any other line, or
// one whose type a changed schema has re-declared, is split into type
// and device and looked up (claiming a slot for a new device). Either
// way the cursor moves to the slot after this line's.
func parseDataBytes(line []byte, lay *Layout, flat *[]uint64, present *[]bool) error {
	slot, i := lay.next, 0
	if slot < len(lay.slots) && !lay.slots[slot].t.replaced {
		i = lay.slots[slot].starts(line)
	}
	if i == 0 {
		typ := nextField(line, &i)
		dev := nextField(line, &i)
		if len(dev) == 0 {
			return fmt.Errorf("malformed data line %q", line)
		}
		tc := lay.byName[string(typ)]
		if tc == nil {
			return fmt.Errorf("data for undeclared type %q", typ)
		}
		slot = tc.ensureDev(lay, dev)
		if len(*flat) < lay.width {
			*flat = append(*flat, make([]uint64, lay.width-len(*flat))...)
		}
		if len(*present) < len(lay.slots) {
			*present = append(*present, make([]bool, len(lay.slots)-len(*present))...)
		}
	}
	lay.next = slot + 1
	s := &lay.slots[slot]
	width := len(s.t.schema)
	n, err := parseValues(line[i:], (*flat)[s.off:s.off+width])
	if err != nil {
		return err
	}
	if n != width {
		return fmt.Errorf("type %q: %d values for %d-key schema", s.t.name, n, width)
	}
	(*present)[slot] = true
	return nil
}

// hasPrefix reports whether line starts with p, comparing in place.
func hasPrefix(line []byte, p string) bool {
	if len(line) < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		if line[i] != p[i] {
			return false
		}
	}
	return true
}

// parseValues reads the whitespace-separated values in b into dst in
// one pass and returns how many tokens b holds. A token of at most 19
// digits followed by a space or the end cannot overflow and is taken as
// read; any other token (longer, or ending on a byte that is neither
// digit nor space) is re-read by parseUint64, whose rejection and
// overflow rules decide. Tokens past len(dst) are counted, not parsed.
func parseValues(b []byte, dst []uint64) (int, error) {
	n, i := 0, 0
	for i < len(b) {
		if asciiSpace[b[i]] {
			i++
			continue
		}
		start := i
		if n >= len(dst) {
			for i < len(b) && !asciiSpace[b[i]] {
				i++
			}
			n++
			continue
		}
		var v uint64
		for ; i < len(b); i++ {
			d := b[i] - '0'
			if d > 9 {
				break
			}
			v = v*10 + uint64(d)
		}
		if i-start > 19 || (i < len(b) && !asciiSpace[b[i]]) {
			i = start
			tok := nextField(b, &i)
			var ok bool
			if v, ok = parseUint64(tok); !ok {
				return n, fmt.Errorf("bad value %q", tok)
			}
		}
		dst[n] = v
		n++
	}
	return n, nil
}
