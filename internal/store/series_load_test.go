package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"supremm/internal/reference"
	"supremm/internal/store"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the committed testdata/fuzz/FuzzLoadSeries seed corpus from seriesSeedCorpus")

// smallSeriesBuffer is a read buffer one SaveSeries line fits in and a
// padded one does not, so a fuzz input reaches bufio.ErrBufferFull.
const smallSeriesBuffer = 512

// extremeSamples are values that make encoding/json pick its other
// number forms: exponents (below 1e-6, from 1e21 on), negative zero,
// subnormals, the largest finite float and the int64 bounds.
func extremeSamples() []store.SystemSample {
	return []store.SystemSample{
		{Time: math.MaxInt64, ActiveNodes: math.MaxInt64, BusyNodes: math.MinInt64, QueuedJobs: -1, RunningJobs: 0,
			TotalTFlops: 1e-7, MemPerNode: 1e21, CPUUserFrac: math.Copysign(0, -1), CPUSysFrac: 5e-324,
			CPUIdleFrac: math.MaxFloat64, ScratchMBps: -math.MaxFloat64, WorkMBps: 1e20, ShareMBps: 1e-6,
			IBTxMBps: 0.1 + 0.2, LnetTxMBps: -123456.789e-300},
		{Time: math.MinInt64, ActiveNodes: 3936, BusyNodes: 3900, QueuedJobs: 12, RunningJobs: 400,
			TotalTFlops: 123.456, MemPerNode: 7.999999999999999, CPUUserFrac: 0.5, CPUSysFrac: 2.2250738585072014e-308,
			CPUIdleFrac: 1, ScratchMBps: 12345678901234567890, WorkMBps: 9.999999999999999e20, ShareMBps: 1e21,
			IBTxMBps: 1.0000000000000002, LnetTxMBps: -0.000001},
	}
}

// randomSamples draws n samples over the whole range of each field.
func randomSamples(rng *rand.Rand, n int) []store.SystemSample {
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Float64()
		case 1:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			return float64(rng.Intn(100000))
		default:
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		}
	}
	integer := func() int64 {
		if rng.Intn(2) == 0 {
			return int64(rng.Intn(5000))
		}
		return int64(rng.Uint64())
	}
	out := make([]store.SystemSample, n)
	for i := range out {
		out[i] = store.SystemSample{
			Time: integer(), ActiveNodes: int(integer()), BusyNodes: int(integer()), QueuedJobs: int(integer()),
			RunningJobs: int(integer()), TotalTFlops: float(), MemPerNode: float(), CPUUserFrac: float(),
			CPUSysFrac: float(), CPUIdleFrac: float(), ScratchMBps: float(), WorkMBps: float(),
			ShareMBps: float(), IBTxMBps: float(), LnetTxMBps: float(),
		}
	}
	return out
}

func saveSeries(tb testing.TB, samples []store.SystemSample) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := store.SaveSeries(&buf, samples); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeriesLineTakesEverySavedLine is the drift guard between
// SaveSeries and LoadSeries' fast path: every line SaveSeries writes,
// for random and extreme samples, is decoded by the fast path into the
// sample it was written from, bit for bit.
func TestSeriesLineTakesEverySavedLine(t *testing.T) {
	samples := append(extremeSamples(), randomSamples(rand.New(rand.NewSource(42)), 2000)...)
	for i, want := range samples {
		line := saveSeries(t, samples[i:i+1])
		got, ok := store.SeriesLine(line)
		if !ok {
			t.Fatalf("SaveSeries line %q is not taken by the fast path", line)
		}
		if !reference.Same(got, want) {
			t.Fatalf("line %q decodes to %+v, want %+v", line, got, want)
		}
	}
}

// TestSeriesLineAllocs pins the fast path at no allocation per line.
func TestSeriesLineAllocs(t *testing.T) {
	line := saveSeries(t, extremeSamples()[:1])
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := store.SeriesLine(line); !ok {
			t.Fatal("fast path refused a SaveSeries line")
		}
	}); n != 0 {
		t.Errorf("fast path allocates %v times per line, want 0", n)
	}
}

// TestLoadSeriesSizesOnce: a reader that tells its size gets its
// samples in one slice sized up front, not one grown line by line — the
// bufio.Reader, its buffer and the samples are LoadSeries' only
// allocations.
func TestLoadSeriesSizesOnce(t *testing.T) {
	data := saveSeries(t, randomSamples(rand.New(rand.NewSource(3)), 1000))
	if n := testing.AllocsPerRun(10, func() {
		if got, err := store.LoadSeries(bytes.NewReader(data)); err != nil || len(got) != 1000 {
			t.Fatal(len(got), err)
		}
	}); n > 4 {
		t.Errorf("LoadSeries allocates %v times, want at most 4", n)
	}
}

// seriesSeedCorpus is FuzzLoadSeries' seeds: SaveSeries output over
// random and extreme samples, then that output with one line mutated
// into a shape the fast path must hand to encoding/json — accepted by
// it or not — with canonical lines before and after.
func seriesSeedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	saved := saveSeries(tb, append(extremeSamples(), randomSamples(rand.New(rand.NewSource(7)), 3)...))
	lines := strings.SplitAfter(string(saved), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	mid := len(lines) / 2
	// mutate returns the file with line mid rewritten by f.
	mutate := func(f func(line string) string) []byte {
		out := slices.Clone(lines)
		out[mid] = f(out[mid])
		return []byte(strings.Join(out, ""))
	}
	replace := func(old, new string) []byte {
		return mutate(func(line string) string {
			if !strings.Contains(line, old) {
				tb.Fatalf("seed line %q has no %q", line, old)
			}
			return strings.Replace(line, old, new, 1)
		})
	}
	// field replaces the value of key in line mid.
	field := func(key, value string) []byte {
		return mutate(func(line string) string {
			start := strings.Index(line, `"`+key+`":`)
			if start < 0 {
				tb.Fatalf("seed line %q has no key %s", line, key)
			}
			start += len(key) + 3
			end := start + strings.IndexAny(line[start:], ",}")
			return line[:start] + value + line[end:]
		})
	}
	pretty, err := json.MarshalIndent(extremeSamples()[1], "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		saved,
		{},
		mutate(func(line string) string { // two keys swapped
			a, rest, _ := strings.Cut(line[1:], ",")
			b, rest, _ := strings.Cut(rest, ",")
			return "{" + b + "," + a + "," + rest
		}),
		replace(`"time"`, `"Time"`),
		replace(`{"time":`, `{"time":1,"time":`),
		replace(`}`, `,"bogus":1}`),
		field("cpu_user", "null"),
		replace(`"time":`, `"time": `),
		replace("}\n", "}\r\n"),
		replace("}\n", "}\n\n"),
		saved[:len(saved)-1],
		mutate(func(string) string { return string(pretty) + "\n" }),
		field("active_nodes", `"10"`),
		field("active_nodes", "01"),
		field("active_nodes", "+1"),
		field("busy_nodes", "1.0"),
		field("busy_nodes", "1e3"),
		field("time", "9223372036854775808"),
		field("queued_jobs", "-9223372036854775809"),
		field("total_tflops", "1e400"),
		field("total_tflops", "1E5"),
		field("total_tflops", "1."),
		field("total_tflops", ".5"),
		field("total_tflops", "-"),
		field("total_tflops", "1e"),
		field("total_tflops", "0.00000000000000000000000000000000000001"),
		replace(`{`, `{`+strings.Repeat(" ", smallSeriesBuffer)),
		append(bytes.Clone(saved), "garbage"...),
		replace("}\n", "}x\n"),
	}
	return seeds
}

// corpusEntry is one seed in the `go test fuzz v1` corpus file format.
func corpusEntry(seed []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
}

// TestSeriesSeedCorpusCommitted pins the committed seed corpus under
// testdata/fuzz/FuzzLoadSeries to the in-code seeds, so `go test` and
// `make fuzz-smoke` replay them even with an empty fuzz cache.
// Regenerate with -update-corpus after changing seriesSeedCorpus.
func TestSeriesSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadSeries")
	seeds := seriesSeedCorpus(t)
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(corpusEntry(seed)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("corpus file missing (regenerate with -update-corpus): %v", err)
		}
		if want := corpusEntry(seed); string(got) != want {
			t.Errorf("%s is stale (regenerate with -update-corpus)", name)
		}
	}
}

// FuzzLoadSeries holds store.LoadSeries to reference.LoadSeries, one
// json.Decoder over the stream: on any input the same samples, bit for
// bit, and the same error text or none — over the default buffer, over
// one a padded line overflows, and over a stream that fails half way.
func FuzzLoadSeries(f *testing.F) {
	for _, seed := range seriesSeedCorpus(f) {
		f.Add(seed)
	}
	errRead := errors.New("read failed")
	f.Fuzz(func(t *testing.T, data []byte) {
		half := func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:len(data)/2]), iotest.ErrReader(errRead))
		}
		for _, c := range []struct {
			name string
			in   func() io.Reader
			load func(io.Reader) ([]store.SystemSample, error)
		}{
			{"default buffer", func() io.Reader { return bytes.NewReader(data) }, store.LoadSeries},
			{"small buffer", func() io.Reader { return bytes.NewReader(data) }, func(r io.Reader) ([]store.SystemSample, error) {
				return store.LoadSeriesBuffered(r, smallSeriesBuffer)
			}},
			{"failing read", half, store.LoadSeries},
		} {
			want, werr := reference.LoadSeries(c.in())
			got, err := c.load(c.in())
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
				t.Fatalf("%s: error %v, the reference says %v", c.name, err, werr)
			}
			if !reference.Same(got, want) {
				t.Fatalf("%s: %d samples differ from the reference's %d", c.name, len(got), len(want))
			}
		}
	})
}
