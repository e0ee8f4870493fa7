package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"strconv"
)

// SystemSample is one sampling interval's cluster-wide aggregate — the
// system-level view of Figures 8 (active nodes), 9/10 (cluster FLOPS)
// and 11/12 (memory per node), obtained "through aggregation of the
// node (job) level data" (abstract).
type SystemSample struct {
	Time        int64   `json:"time"` // unix seconds (end of interval)
	ActiveNodes int     `json:"active_nodes"`
	BusyNodes   int     `json:"busy_nodes"`
	QueuedJobs  int     `json:"queued_jobs"`
	RunningJobs int     `json:"running_jobs"`
	TotalTFlops float64 `json:"total_tflops"`    // cluster SSE TFLOP/s
	MemPerNode  float64 `json:"mem_per_node_gb"` // mean GB over active nodes
	CPUUserFrac float64 `json:"cpu_user"`        // over busy node core-time
	CPUSysFrac  float64 `json:"cpu_sys"`
	CPUIdleFrac float64 `json:"cpu_idle"`
	ScratchMBps float64 `json:"io_scratch_write"` // cluster MB/s
	WorkMBps    float64 `json:"io_work_write"`
	ShareMBps   float64 `json:"io_share_write"`
	IBTxMBps    float64 `json:"net_ib_tx"`
	LnetTxMBps  float64 `json:"net_lnet_tx"`
}

// SeriesMetric extracts one named column from a SystemSample, using the
// same metric vocabulary as the job-level store where they coincide.
func (s SystemSample) SeriesMetric(name string) (float64, bool) {
	switch name {
	case "active_nodes":
		return float64(s.ActiveNodes), true
	case "busy_nodes":
		return float64(s.BusyNodes), true
	case "cpu_flops", "total_tflops":
		return s.TotalTFlops, true
	case "mem_used", "mem_per_node_gb":
		return s.MemPerNode, true
	case "cpu_idle":
		return s.CPUIdleFrac, true
	case "cpu_user":
		return s.CPUUserFrac, true
	case "cpu_sys":
		return s.CPUSysFrac, true
	case "io_scratch_write":
		return s.ScratchMBps, true
	case "io_work_write":
		return s.WorkMBps, true
	case "io_share_write":
		return s.ShareMBps, true
	case "net_ib_tx":
		return s.IBTxMBps, true
	case "net_lnet_tx":
		return s.LnetTxMBps, true
	default:
		return 0, false
	}
}

// SeriesColumn extracts a named column across samples; unknown names
// return nil.
func SeriesColumn(samples []SystemSample, name string) []float64 {
	if len(samples) == 0 {
		return nil
	}
	if _, ok := samples[0].SeriesMetric(name); !ok {
		return nil
	}
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i], _ = s.SeriesMetric(name)
	}
	return out
}

// SaveSeries writes samples as JSON lines.
func SaveSeries(w io.Writer, samples []SystemSample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range samples {
		if err := enc.Encode(samples[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadSeries reads a JSON-lines series file. Each line in exactly
// SaveSeries' shape (seriesLine) is decoded in place; from the first
// line that is not, the rest of the stream, that line's first byte on,
// goes to encoding/json's Decoder, and the fast path is not taken again.
// A fast line is one json.Decoder reads to the same sample, so what is
// accepted, the samples and the error are json.Decoder's on any input
// (FuzzLoadSeries holds it to reference.LoadSeries).
func LoadSeries(r io.Reader) ([]SystemSample, error) { return loadSeries(r, seriesBufSize) }

// seriesBufSize is LoadSeries' read buffer: a longer line is decoded
// by encoding/json.
const seriesBufSize = 64 << 10

func loadSeries(r io.Reader, size int) ([]SystemSample, error) {
	hint := seriesCap(r)
	br := bufio.NewReaderSize(r, size)
	var out []SystemSample
	for {
		line, err := br.ReadSlice('\n')
		if err == nil {
			if s, ok := seriesLine(line); ok {
				out = appendSample(out, s, hint)
				continue
			}
		}
		if err == io.EOF && len(line) == 0 {
			return out, nil
		}
		// line is the reader's buffer, and a partial line when the buffer
		// filled up; any other read error ends the stream after it.
		var rest io.Reader = br
		if err != nil && err != bufio.ErrBufferFull {
			rest = errReader{err}
		}
		return decodeSeries(out, hint, io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
	}
}

// minSeriesLine is the shortest line SaveSeries writes: every key, a
// one-digit value each, then "}\n".
var minSeriesLine = func() int {
	n := len("}\n")
	for _, k := range seriesKeys {
		n += len(k) + 1
	}
	return n
}()

// seriesCap is how many samples r can hold at most when it can tell its
// size, as an *os.File or a Len does; else 0.
func seriesCap(r io.Reader) int {
	var size int64
	switch r := r.(type) {
	case interface{ Len() int }:
		size = int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if st, err := r.Stat(); err == nil && st.Mode().IsRegular() {
			size = st.Size()
		}
	}
	return int(size / int64(minSeriesLine))
}

// appendSample appends s to out, sizing out for hint samples first: a
// series with no sample stays nil, as encoding/json leaves it.
func appendSample(out []SystemSample, s SystemSample, hint int) []SystemSample {
	if out == nil {
		out = make([]SystemSample, 0, hint)
	}
	return append(out, s)
}

// decodeSeries appends what encoding/json decodes from r to out.
func decodeSeries(out []SystemSample, hint int, r io.Reader) ([]SystemSample, error) {
	dec := json.NewDecoder(r)
	for {
		var s SystemSample
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("store: load series: %w", err)
		}
		out = appendSample(out, s, hint)
	}
}

// errReader is a stream that has ended with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// seriesKeys is every field's key as SaveSeries writes it, in field
// order, each behind the byte that opens the object or ends the value
// before it. The first seriesInts fields are integers, the rest floats.
var seriesKeys = [...]string{
	`{"time":`, `,"active_nodes":`, `,"busy_nodes":`, `,"queued_jobs":`, `,"running_jobs":`,
	`,"total_tflops":`, `,"mem_per_node_gb":`, `,"cpu_user":`, `,"cpu_sys":`, `,"cpu_idle":`,
	`,"io_scratch_write":`, `,"io_work_write":`, `,"io_share_write":`, `,"net_ib_tx":`, `,"net_lnet_tx":`,
}

const (
	seriesInts = 5
	// maxSeriesNumber bounds a fast number's bytes: a string of at most
	// 32 bytes that does not escape converts into a stack buffer.
	// SaveSeries writes at most 24.
	maxSeriesNumber = 32
)

// seriesLine decodes one line in exactly SaveSeries' shape: the keys of
// seriesKeys in order with no whitespace, every number in JSON's
// grammar, the integers with neither fraction nor exponent and in range,
// then "}\n". The numbers are read by strconv as encoding/json reads
// them. Any other line is not decoded here (ok false).
func seriesLine(line []byte) (s SystemSample, ok bool) {
	var ints [seriesInts]int64
	var floats [len(seriesKeys) - seriesInts]float64
	for i, key := range seriesKeys {
		//supremmlint:allow hotalloc: a comparison, which the compiler makes on the bytes whether or not key is a constant (TestSeriesLineAllocs)
		if len(line) < len(key) || string(line[:len(key)]) != key {
			return s, false
		}
		line = line[len(key):]
		n, integer := numberLen(line)
		if n == 0 || n > maxSeriesNumber {
			return s, false
		}
		//supremmlint:allow hotalloc: at most maxSeriesNumber bytes that strconv does not keep, so the copy is on the stack (TestSeriesLineAllocs)
		num := string(line[:n])
		line = line[n:]
		if i < seriesInts {
			v, err := strconv.ParseInt(num, 10, 64)
			if !integer || err != nil || (i > 0 && int64(int(v)) != v) {
				return s, false
			}
			ints[i] = v
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return s, false
		}
		floats[i-seriesInts] = f
	}
	if string(line) != "}\n" {
		return s, false
	}
	return SystemSample{
		Time: ints[0], ActiveNodes: int(ints[1]), BusyNodes: int(ints[2]), QueuedJobs: int(ints[3]), RunningJobs: int(ints[4]),
		TotalTFlops: floats[0], MemPerNode: floats[1], CPUUserFrac: floats[2], CPUSysFrac: floats[3], CPUIdleFrac: floats[4],
		ScratchMBps: floats[5], WorkMBps: floats[6], ShareMBps: floats[7], IBTxMBps: floats[8], LnetTxMBps: floats[9],
	}, true
}

// numberLen is the length of the JSON number b starts with, 0 for none;
// integer reports that it has neither fraction nor exponent.
func numberLen(b []byte) (n int, integer bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return 0, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i, integer = j, false
		} else {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := digits(j); k > j {
			i, integer = k, false
		} else {
			return 0, false
		}
	}
	return i, integer
}
