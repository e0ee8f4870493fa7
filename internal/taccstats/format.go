// Package taccstats reproduces the TACC_Stats resource monitor (§3): a
// single agent that samples every performance-measurement function of
// sysstat and more, outputs a unified, self-describing plain-text format,
// is batch-job aware (records are tagged with the job ID, with explicit
// begin/end marks), reprograms hardware performance counters at job start
// and only reads them at periodic samples, and rotates raw files daily.
//
// The on-disk format follows the deployed tool's layout:
//
//	$tacc_stats 2.0
//	$hostname c101-301.ranger
//	$arch amd64_opteron
//	!cpu user,E,U=cs nice,E,U=cs ...
//	!mem MemTotal,U=KB MemUsed,U=KB ...
//	1307000600 begin 123456
//	cpu 0 4000 0 100 59000 20 0 0
//	mem 0 8388608 524288 ...
//	1307001200
//	cpu 0 4400 0 110 64800 22 0 0
//	...
//	1307036600 end 123456
//
// Header lines begin with '$', schema lines with '!', a record starts
// with a timestamp line (optionally carrying a job mark) and continues
// with "type device value..." lines until the next timestamp.
package taccstats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"supremm/internal/procfs"
)

// FormatVersion is written in the file preamble.
const FormatVersion = "2.0"

// Writer emits the raw TACC_Stats format for one node.
type Writer struct {
	w       *bufio.Writer
	written int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// BytesWritten reports the bytes emitted so far (§3's data volume
// accounting: ~0.5 MB per node per day on Ranger).
func (w *Writer) BytesWritten() int64 { return w.written }

// WriteHeader emits the preamble and the schema block for every stat
// type registered in the snapshot, in registration order.
func (w *Writer) WriteHeader(snap *procfs.Snapshot, arch string) error {
	if err := w.printf("$tacc_stats %s\n", FormatVersion); err != nil {
		return err
	}
	if err := w.printf("$hostname %s\n", snap.Hostname); err != nil {
		return err
	}
	if err := w.printf("$arch %s\n", arch); err != nil {
		return err
	}
	for _, name := range snap.TypeNames() {
		ts := snap.Type(name)
		parts := make([]string, len(ts.Schema))
		for i, k := range ts.Schema {
			parts[i] = k.String()
		}
		if err := w.printf("!%s %s\n", name, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

// WriteRecord emits one full sample of every registered type. mark is
// "" for periodic samples, or "begin JOBID" / "end JOBID" / "rotate" for
// the job-aware markers.
func (w *Writer) WriteRecord(snap *procfs.Snapshot, mark string) error {
	if mark != "" {
		if err := w.printf("%d %s\n", snap.Time, mark); err != nil {
			return err
		}
	} else {
		if err := w.printf("%d\n", snap.Time); err != nil {
			return err
		}
	}
	var sb strings.Builder
	for _, name := range snap.TypeNames() {
		ts := snap.Type(name)
		for _, dev := range ts.Devices() {
			sb.Reset()
			sb.WriteString(name)
			sb.WriteByte(' ')
			sb.WriteString(dev)
			for _, v := range ts.Values(dev) {
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatUint(v, 10))
			}
			sb.WriteByte('\n')
			if err := w.printString(sb.String()); err != nil {
				return err
			}
		}
	}
	return w.w.Flush()
}

func (w *Writer) printf(format string, args ...any) error {
	n, err := fmt.Fprintf(w.w, format, args...)
	w.written += int64(n)
	return err
}

func (w *Writer) printString(s string) error {
	n, err := w.w.WriteString(s)
	w.written += int64(n)
	return err
}

// Record is one parsed sample: a timestamp, an optional job mark, and
// the counter values. Records delivered by ParseStream store their
// values in a flat array described by the per-file Layout (see
// Flat/Layout) and have a nil Data map; Materialize builds the nested
// Data view.
type Record struct {
	Time int64
	// Mark is "", "begin", "end" or "rotate".
	Mark string
	// JobID accompanies begin/end marks.
	JobID int64
	Data  map[string]map[string][]uint64

	// Streaming representation: flat values at layout-assigned columns,
	// with per-(type,device) presence bits.
	flat    []uint64
	present []bool
	layout  *Layout
}

// Layout returns the per-file column layout backing a streamed record,
// or nil for records holding the nested Data view.
func (r *Record) Layout() *Layout { return r.layout }

// Flat returns the flat value array of a streamed record, indexed by the
// columns its Layout assigns. Absent devices read zero. The slice is
// reused by the parser and only valid until the ParseStream callback
// returns.
func (r *Record) Flat() []uint64 { return r.flat }

// Materialize returns a deep, self-contained copy of the record with the
// nested Data view populated; safe to retain after the ParseStream
// callback returns.
func (r *Record) Materialize() Record {
	out := Record{Time: r.Time, Mark: r.Mark, JobID: r.JobID}
	if r.layout == nil {
		out.Data = r.Data
		return out
	}
	out.Data = make(map[string]map[string][]uint64)
	for i, s := range r.layout.slots {
		if i >= len(r.present) || !r.present[i] {
			continue
		}
		w := len(s.t.schema)
		vals := make([]uint64, w)
		copy(vals, r.flat[s.off:s.off+w])
		devs := out.Data[s.t.name]
		if devs == nil {
			devs = make(map[string][]uint64)
			out.Data[s.t.name] = devs
		}
		devs[s.dev] = vals
	}
	return out
}

// File is a raw file's header and schemas, as ParseStream returns them
// once every record has been delivered.
type File struct {
	Hostname string
	Arch     string
	Version  string
	Schemas  map[string]procfs.Schema
}

// parseSchemaLine parses "!name key[,E][,U=unit] ..." by walking the
// line's bytes in place; the only copies made are the name, key and
// unit strings the schema retains.
func parseSchemaLine(line []byte) (string, procfs.Schema, error) {
	body := line[1:]
	i := 0
	nameTok := nextField(body, &i)
	var schema procfs.Schema
	for {
		spec := nextField(body, &i)
		if spec == nil {
			break
		}
		k, err := parseKeySpec(spec)
		if err != nil {
			return "", nil, err
		}
		schema = append(schema, k)
	}
	if nameTok == nil || len(schema) == 0 {
		return "", nil, fmt.Errorf("malformed schema %q", line)
	}
	name := string(nameTok) //supremmlint:allow hotalloc: schema name is retained, once per schema line
	return name, schema, nil
}

// parseKeySpec parses one "key[,E][,U=unit]" schema column descriptor.
func parseKeySpec(spec []byte) (procfs.Key, error) {
	var k procfs.Key
	j := bytes.IndexByte(spec, ',')
	if j < 0 {
		k.Name = string(spec) //supremmlint:allow hotalloc: key name is retained by the schema
		return k, nil
	}
	k.Name = string(spec[:j]) //supremmlint:allow hotalloc: key name is retained by the schema
	rest := spec[j+1:]
	for {
		var p []byte
		if c := bytes.IndexByte(rest, ','); c >= 0 {
			p, rest = rest[:c], rest[c+1:]
		} else {
			p, rest = rest, nil
		}
		switch {
		case len(p) == 1 && p[0] == 'E':
			k.Class = procfs.Event
		case len(p) >= 2 && p[0] == 'U' && p[1] == '=':
			k.Unit = string(p[2:]) //supremmlint:allow hotalloc: unit string is retained by the schema
		default:
			return procfs.Key{}, fmt.Errorf("unknown key annotation %q in %q", p, spec)
		}
		if rest == nil {
			return k, nil
		}
	}
}

// Get reads one value from a record; missing entries read 0 with
// ok=false. Streamed records resolve through their Layout (ignoring
// schemas); materialized records resolve through the nested maps.
func (r *Record) Get(schemas map[string]procfs.Schema, typ, dev, key string) (uint64, bool) {
	if r.layout != nil {
		tc := r.layout.byName[typ]
		if tc == nil {
			return 0, false
		}
		di, ok := tc.byDev[dev]
		if !ok {
			return 0, false
		}
		d := tc.devs[di]
		if d.slot >= len(r.present) || !r.present[d.slot] {
			return 0, false
		}
		ki, ok := tc.keyIdx[key]
		if !ok {
			return 0, false
		}
		return r.flat[d.off+ki], true
	}
	devs, ok := r.Data[typ]
	if !ok {
		return 0, false
	}
	vals, ok := devs[dev]
	if !ok {
		return 0, false
	}
	schema, ok := schemas[typ]
	if !ok {
		return 0, false
	}
	i := schema.Index(key)
	if i < 0 || i >= len(vals) {
		return 0, false
	}
	return vals[i], true
}
