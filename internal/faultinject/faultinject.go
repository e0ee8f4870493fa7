// Package faultinject corrupts a clean simulated raw archive under a
// seeded specification, reproducing the fault model an 18-month
// production deployment actually sees: nodes crashing mid-write
// (truncated final records), cosmic-ray/disk garbling, duplicated and
// out-of-order samples from retransmitting collectors, whole host-days
// lost to full disks, clocks stepping after reboots, and counters
// restarting when a node reboots. The injector is byte-deterministic:
// the same (archive, Spec) pair always produces the same corrupted tree
// and the same Manifest, so differential tests can assert exactly what
// a degraded-mode ingest must detect and survive.
//
// The Manifest records every fault applied plus the DataQuality totals
// a lenient ingest is expected to account for, making "ingest detected
// exactly what the injector did" a testable equality.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Kind names one fault class.
type Kind string

// The injectable fault classes, ordered so that small victim sets still
// exercise the parse-breaking kinds first.
const (
	// KindGarble corrupts one data line (bit rot / torn write): the
	// parser rejects the line, quarantining the file.
	KindGarble Kind = "garble"
	// KindTruncate cuts the host's last file mid-line, as a node dying
	// mid-write leaves it; the parser rejects the partial line.
	KindTruncate Kind = "truncate"
	// KindReorder swaps two adjacent records, producing one
	// non-monotonic timestamp the ingest must drop.
	KindReorder Kind = "reorder"
	// KindCounterReset rebases every counter from one record onward to
	// restart near zero, as a node reboot does; CPU counters moving
	// backwards is the ingest's reset signal.
	KindCounterReset Kind = "counter-reset"
	// KindDuplicate repeats one record verbatim (collector retransmit),
	// producing a zero-dt interval the ingest must skip.
	KindDuplicate Kind = "duplicate"
	// KindMissingDay deletes an interior day file, leaving a gap whose
	// bridging interval exceeds any plausible sampling delta.
	KindMissingDay Kind = "missing-day"
	// KindClockSkew steps the host clock forward mid-file (NTP jump
	// after reboot), skewing one interval beyond the plausible maximum.
	KindClockSkew Kind = "clock-skew"
)

// AllKinds lists every fault class in injection-priority order.
func AllKinds() []Kind {
	return []Kind{
		KindGarble, KindTruncate, KindReorder, KindCounterReset,
		KindDuplicate, KindMissingDay, KindClockSkew,
	}
}

// Spec parameterizes one injection run.
type Spec struct {
	// Seed drives every random choice; equal seeds give equal output.
	Seed int64
	// HostFrac is the fraction of hosts to corrupt, rounded up to at
	// least one victim when positive.
	HostFrac float64
	// Kinds cycles over the victims in sorted-host order; nil means
	// AllKinds().
	Kinds []Kind
	// SkewSec is the forward clock step KindClockSkew applies; 0 means
	// 2 days, which exceeds the ingest's default plausibility bound.
	SkewSec int64
}

// Fault is one applied corruption.
type Fault struct {
	Host string `json:"host"`
	File string `json:"file"` // "" for whole-host faults (none today)
	Kind Kind   `json:"kind"`
	// Line is the 1-based line number of the corruption within the
	// rewritten file, when the fault is line-addressable.
	Line   int    `json:"line,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Expected is the DataQuality accounting a lenient ingest of the
// corrupted archive must report, assuming its plausibility bound
// (MaxIntervalSec) is below the injected gap/skew magnitudes.
type Expected struct {
	FilesQuarantined  int `json:"files_quarantined"`
	RecordsDropped    int `json:"records_dropped"`
	DuplicatesSkipped int `json:"duplicates_skipped"`
	ResetsDetected    int `json:"resets_detected"`
	IntervalsClamped  int `json:"intervals_clamped"`
}

// Manifest records everything one injection run did.
type Manifest struct {
	Seed   int64    `json:"seed"`
	Hosts  []string `json:"hosts"` // corrupted hosts, sorted
	Faults []Fault  `json:"faults"`
	Expect Expected `json:"expect"`
}

// Corrupted reports whether host was touched by any fault.
func (m *Manifest) Corrupted(host string) bool {
	for _, h := range m.Hosts {
		if h == host {
			return true
		}
	}
	return false
}

// Inject copies the raw archive at src (host/day.raw layout) into dst,
// corrupting a deterministic subset of hosts per spec. dst must not
// already contain conflicting files; parent directories are created.
func Inject(src, dst string, spec Spec) (*Manifest, error) {
	if spec.SkewSec == 0 {
		spec.SkewSec = 2 * 86400
	}
	kinds := spec.Kinds
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return nil, fmt.Errorf("faultinject: read src: %w", err)
	}
	var hosts []string
	for _, e := range entries {
		if e.IsDir() {
			hosts = append(hosts, e.Name())
		}
	}
	sort.Strings(hosts)

	rng := rand.New(rand.NewSource(spec.Seed))
	victims := pickVictims(rng, hosts, spec.HostFrac)

	m := &Manifest{Seed: spec.Seed, Hosts: victims}
	victimKind := make(map[string]Kind, len(victims))
	for i, h := range victims {
		victimKind[h] = kinds[i%len(kinds)]
	}

	for _, host := range hosts {
		srcHost := filepath.Join(src, host)
		dstHost := filepath.Join(dst, host)
		if err := os.MkdirAll(dstHost, 0o755); err != nil {
			return nil, err
		}
		files, err := rawFileNames(srcHost)
		if err != nil {
			return nil, err
		}
		kind, isVictim := victimKind[host]
		if !isVictim {
			for _, name := range files {
				if err := copyFile(filepath.Join(srcHost, name), filepath.Join(dstHost, name)); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := corruptHost(rng, m, srcHost, dstHost, host, files, kind, spec.SkewSec); err != nil {
			return nil, fmt.Errorf("faultinject: host %s kind %s: %w", host, kind, err)
		}
	}
	return m, nil
}

// pickVictims chooses ceil(frac*len(hosts)) distinct hosts, returned
// sorted so downstream random draws are order-independent.
func pickVictims(rng *rand.Rand, hosts []string, frac float64) []string {
	if frac <= 0 || len(hosts) == 0 {
		return nil
	}
	n := int(math.Ceil(frac * float64(len(hosts))))
	if n > len(hosts) {
		n = len(hosts)
	}
	perm := rng.Perm(len(hosts))
	victims := make([]string, 0, n)
	for _, idx := range perm[:n] {
		victims = append(victims, hosts[idx])
	}
	sort.Strings(victims)
	return victims
}

// corruptHost applies one fault kind to one host, copying every file
// (corrupted or verbatim) into dstHost and recording the fault.
func corruptHost(rng *rand.Rand, m *Manifest, srcHost, dstHost, host string, files []string, kind Kind, skewSec int64) error {
	if len(files) == 0 {
		return fmt.Errorf("no raw files")
	}
	// Kinds that need structure the host lacks degrade to garble; the
	// manifest records what actually ran.
	if kind == KindMissingDay && len(files) < 3 {
		kind = KindGarble
	}
	var target string
	var rf *rawFile
	if kind != KindMissingDay {
		var err error
		if kind, target, rf, err = pickTarget(srcHost, files, kind); err != nil {
			return err
		}
	}

	switch kind {
	case KindMissingDay:
		// Delete an interior file so the remaining neighbours bridge an
		// implausibly long interval.
		target = files[1+rng.Intn(len(files)-2)]
		for _, name := range files {
			if name == target {
				continue
			}
			if err := copyFile(filepath.Join(srcHost, name), filepath.Join(dstHost, name)); err != nil {
				return err
			}
		}
		m.Faults = append(m.Faults, Fault{Host: host, File: target, Kind: kind,
			Detail: "interior day file deleted"})
		m.Expect.IntervalsClamped++
		return nil

	case KindClockSkew, KindCounterReset:
		// These propagate from a chosen record to the end of the host's
		// archive, so every file from the target onward is rewritten.
		started := false
		var baselines map[string][]uint64
		for _, name := range files {
			srcPath := filepath.Join(srcHost, name)
			if !started && name != target {
				if err := copyFile(srcPath, filepath.Join(dstHost, name)); err != nil {
					return err
				}
				continue
			}
			rf, err := parseRawLines(srcPath)
			if err != nil {
				return err
			}
			from := 0
			if !started {
				started = true
				from = 1 + rng.Intn(len(rf.blocks)-1)
				if kind == KindClockSkew {
					m.Faults = append(m.Faults, Fault{Host: host, File: name, Kind: kind,
						Detail: fmt.Sprintf("clock stepped +%ds from t=%d", skewSec, rf.blocks[from].ts)})
					m.Expect.IntervalsClamped++
				} else {
					baselines = blockBaselines(rf.blocks[from])
					m.Faults = append(m.Faults, Fault{Host: host, File: name, Kind: kind,
						Detail: fmt.Sprintf("counters rebased (reboot) at t=%d", rf.blocks[from].ts)})
					m.Expect.ResetsDetected++
				}
			}
			for bi := from; bi < len(rf.blocks); bi++ {
				if kind == KindClockSkew {
					rf.blocks[bi].setTime(rf.blocks[bi].ts + skewSec)
				} else {
					rebaseBlock(&rf.blocks[bi], baselines)
				}
			}
			if err := os.WriteFile(filepath.Join(dstHost, name), rf.bytes(), 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	// Single-file faults: every other file copies verbatim.
	for _, name := range files {
		if name == target {
			continue
		}
		if err := copyFile(filepath.Join(srcHost, name), filepath.Join(dstHost, name)); err != nil {
			return err
		}
	}
	switch kind {
	case KindGarble:
		bi := 1 + rng.Intn(len(rf.blocks)-1)
		b := &rf.blocks[bi]
		li := rng.Intn(len(b.data))
		line := b.data[li]
		// Clobber the tail of the line: the value tokenizer rejects
		// non-digits, so the parser fails exactly here.
		cut := len(line) / 2
		b.data[li] = line[:cut] + "\x7f###bitrot###"
		m.Faults = append(m.Faults, Fault{Host: host, File: target, Kind: kind,
			Line: rf.lineOf(bi, li), Detail: "data line garbled"})
		m.Expect.FilesQuarantined++

	case KindTruncate:
		// Cut mid-line inside the final record so the file ends with a
		// partial data line — the shape a crash mid-write leaves.
		b := &rf.blocks[len(rf.blocks)-1]
		keep := len(b.data) / 2
		lastLine := b.data[keep]
		b.data = append(b.data[:keep], lastLine[:len(lastLine)*2/3])
		rf.truncated = true
		m.Faults = append(m.Faults, Fault{Host: host, File: target, Kind: kind,
			Line: rf.lineOf(len(rf.blocks)-1, keep), Detail: "file cut mid-line (crash mid-write)"})
		m.Expect.FilesQuarantined++

	case KindDuplicate:
		bi := rng.Intn(len(rf.blocks))
		dup := rf.blocks[bi].clone()
		rf.blocks = append(rf.blocks[:bi+1], append([]rawBlock{dup}, rf.blocks[bi+1:]...)...)
		m.Faults = append(m.Faults, Fault{Host: host, File: target, Kind: kind,
			Detail: fmt.Sprintf("record t=%d duplicated", dup.ts)})
		m.Expect.DuplicatesSkipped++

	case KindReorder:
		i := rng.Intn(len(rf.blocks) - 1)
		rf.blocks[i], rf.blocks[i+1] = rf.blocks[i+1], rf.blocks[i]
		m.Faults = append(m.Faults, Fault{Host: host, File: target, Kind: kind,
			Detail: fmt.Sprintf("records t=%d and t=%d swapped", rf.blocks[i].ts, rf.blocks[i+1].ts)})
		m.Expect.RecordsDropped++

	default:
		return fmt.Errorf("unknown kind %q", kind)
	}
	return os.WriteFile(filepath.Join(dstHost, target), rf.bytes(), 0o644)
}

// pickTarget returns the kind that runs on a host, the file it
// corrupts and that file parsed: the file nearest the middle (for
// truncate, the last) that holds the records the kind needs, else
// garble's file.
func pickTarget(srcHost string, files []string, kind Kind) (Kind, string, *rawFile, error) {
	parsed := make([]*rawFile, len(files))
	for {
		need, from := 3, len(files)/2
		switch kind {
		case KindGarble, KindClockSkew, KindCounterReset:
			need = 2
		case KindTruncate:
			from = len(files) - 1
		}
		// Nearest first; of two at one distance, the earlier.
		for d := 0; d < len(files); d++ {
			for _, i := range []int{from - d, from + d} {
				if i < 0 || i >= len(files) {
					continue
				}
				if parsed[i] == nil {
					rf, err := parseRawLines(filepath.Join(srcHost, files[i]))
					if err != nil {
						return kind, "", nil, err
					}
					parsed[i] = rf
				}
				if len(parsed[i].blocks) >= need {
					return kind, files[i], parsed[i], nil
				}
			}
		}
		if kind == KindGarble {
			return kind, "", nil, fmt.Errorf("no file holds >= %d records", need)
		}
		kind = KindGarble
	}
}

// ---------------------------------------------------------------------
// Raw-format line surgery.
// ---------------------------------------------------------------------

// rawBlock is one record: its timestamp line plus the data lines that
// follow it.
type rawBlock struct {
	ts     int64
	tsLine string
	data   []string
}

func (b *rawBlock) clone() rawBlock {
	c := *b
	c.data = append([]string(nil), b.data...)
	return c
}

// setTime rewrites the timestamp while preserving any job mark.
func (b *rawBlock) setTime(ts int64) {
	b.ts = ts
	if sp := strings.IndexByte(b.tsLine, ' '); sp >= 0 {
		b.tsLine = strconv.FormatInt(ts, 10) + b.tsLine[sp:]
	} else {
		b.tsLine = strconv.FormatInt(ts, 10)
	}
}

// rawFile is a parsed raw file: the header/schema prefix verbatim, then
// record blocks.
type rawFile struct {
	header    []string
	blocks    []rawBlock
	truncated bool // suppress the trailing newline (crash mid-line)
}

func parseRawLines(path string) (*rawFile, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &rawFile{}
	for _, line := range strings.Split(strings.TrimSuffix(string(content), "\n"), "\n") {
		if len(line) > 0 && line[0] >= '0' && line[0] <= '9' {
			tok := line
			if sp := strings.IndexByte(line, ' '); sp >= 0 {
				tok = line[:sp]
			}
			ts, err := strconv.ParseInt(tok, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad timestamp line %q", path, line)
			}
			rf.blocks = append(rf.blocks, rawBlock{ts: ts, tsLine: line})
			continue
		}
		if len(rf.blocks) == 0 {
			rf.header = append(rf.header, line)
		} else {
			b := &rf.blocks[len(rf.blocks)-1]
			b.data = append(b.data, line)
		}
	}
	return rf, nil
}

func (rf *rawFile) bytes() []byte {
	var sb strings.Builder
	for _, l := range rf.header {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	for bi := range rf.blocks {
		b := &rf.blocks[bi]
		sb.WriteString(b.tsLine)
		sb.WriteByte('\n')
		for li, l := range b.data {
			sb.WriteString(l)
			if rf.truncated && bi == len(rf.blocks)-1 && li == len(b.data)-1 {
				break // crash mid-line: no trailing newline
			}
			sb.WriteByte('\n')
		}
	}
	return []byte(sb.String())
}

// lineOf returns the 1-based line number of data line li of block bi in
// the serialized file.
func (rf *rawFile) lineOf(bi, li int) int {
	n := len(rf.header)
	for i := 0; i < bi; i++ {
		n += 1 + len(rf.blocks[i].data)
	}
	return n + 1 + li + 1
}

// blockBaselines captures the counter values of one record per
// "type dev" key, the rebasing origin for a simulated reboot.
func blockBaselines(b rawBlock) map[string][]uint64 {
	base := make(map[string][]uint64, len(b.data))
	for _, line := range b.data {
		key, vals, ok := splitDataLine(line)
		if !ok {
			continue
		}
		base[key] = vals
	}
	return base
}

// rebaseBlock subtracts the baseline from every counter so the record
// reads as a freshly booted node would. Values below their baseline
// (gauges that moved) are kept as-is.
func rebaseBlock(b *rawBlock, base map[string][]uint64) {
	for li, line := range b.data {
		key, vals, ok := splitDataLine(line)
		if !ok {
			continue
		}
		bs := base[key]
		if bs == nil {
			continue
		}
		parts := strings.Fields(line)
		for i, v := range vals {
			if i < len(bs) && v >= bs[i] {
				parts[2+i] = strconv.FormatUint(v-bs[i], 10)
			}
		}
		b.data[li] = strings.Join(parts, " ")
	}
}

// splitDataLine tokenizes "type dev v0 v1 ..." into a "type dev" key
// and its values; non-data lines (headers, schemas) report !ok.
func splitDataLine(line string) (key string, vals []uint64, ok bool) {
	if len(line) == 0 || line[0] == '$' || line[0] == '!' {
		return "", nil, false
	}
	parts := strings.Fields(line)
	if len(parts) < 3 {
		return "", nil, false
	}
	vals = make([]uint64, 0, len(parts)-2)
	for _, p := range parts[2:] {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return "", nil, false
		}
		vals = append(vals, v)
	}
	return parts[0] + " " + parts[1], vals, true
}

// rawFileNames lists a host dir's day files in numeric day order. It
// copies taccstats.DayFiles, which owns the day-file name and order:
// taccstats' own fuzz test imports this package, so it stays a leaf.
func rawFileNames(hostDir string) ([]string, error) {
	entries, err := os.ReadDir(hostDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".raw") {
			names = append(names, e.Name())
		}
	}
	dayOf := func(name string) int {
		n, err := strconv.Atoi(strings.TrimSuffix(name, ".raw"))
		if err != nil {
			return 1 << 30
		}
		return n
	}
	sort.Slice(names, func(i, j int) bool { return dayOf(names[i]) < dayOf(names[j]) })
	return names, nil
}

func copyFile(src, dst string) error {
	content, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, content, 0o644)
}
