package taccstats

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"supremm/internal/faultinject"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the committed testdata/fuzz seed corpus from fuzzSeedCorpus")

// fuzzSeedCorpus renders the round-trip fixture, the malformed-input
// corpus exercised by TestParseRejectsMalformed, the injector's
// corruption shapes and the inputs that leave ParseStream's predicted
// slot (slotSeeds), so the fuzzer starts from both accepting and
// rejecting paths.
func fuzzSeedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	snap := rangerSnap()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteRecord(snap, "begin 42"); err != nil {
		tb.Fatal(err)
	}
	snap.Time += 600
	if err := w.WriteRecord(snap, ""); err != nil {
		tb.Fatal(err)
	}
	snap.Time += 600
	if err := w.WriteRecord(snap, "end 42"); err != nil {
		tb.Fatal(err)
	}
	header := "$tacc_stats 2.0\n$hostname h\n$arch a\n!cpu user,E,U=cs idle,E\n"
	seeds := [][]byte{
		buf.Bytes(),
		[]byte(header + "100 rotate\ncpu 0 1 2\n\n200\ncpu 0 3 4\n"),
		[]byte(header + "cpu 0 1 2\n"),
		[]byte(header + "100\nmem 0 1 2\n"),
		[]byte(header + "100\ncpu 0 1 2 3\n"),
		[]byte(header + "100\ncpu 0 1 x\n"),
		[]byte(header + "100 weird\n"),
		[]byte(header + "100 begin abc\n"),
		[]byte(header + "100 begin 1 extra\n"),
		[]byte("!cpu\n"),
		[]byte("!cpu user,Z\n"),
		[]byte("$loner\n"),
		[]byte(header + "100\ncpu 0\n"),
	}
	seeds = append(seeds, injectedSeeds(tb)...)
	return append(seeds, slotSeeds()...)
}

// slotSeeds are files on which a parser that predicts each data line's
// (type, device) slot from the previous line's must fall back to a
// lookup, or must not take the slot it predicts, plus the value tokens
// at the edge of its one-pass digit loop.
func slotSeeds() [][]byte {
	header := "$tacc_stats 2.0\n$hostname h\n$arch a\n!cpu user,E idle,E\n!mem MemUsed,U=KB\n"
	return [][]byte{
		// Lines reordered inside a record.
		[]byte(header + "100\ncpu 0 1 2\ncpu 1 3 4\nmem 0 5\n200\nmem 0 6\ncpu 1 7 8\ncpu 0 9 10\n"),
		// A device first seen mid-file, between two known ones.
		[]byte(header + "100\ncpu 0 1 2\nmem 0 5\n200\ncpu 0 3 4\ncpu 7 1 1\nmem 0 6\n300\ncpu 0 5 6\ncpu 7 2 2\nmem 0 7\n"),
		// A repeated line: the later values stand.
		[]byte(header + "100\ncpu 0 1 2\ncpu 0 1 2\nmem 0 5\n200\ncpu 0 3 4\nmem 0 6\nmem 0 8\n"),
		// A schema re-declared mid-file, identical.
		[]byte(header + "100\ncpu 0 1 2\nmem 0 5\n!cpu user,E idle,E\n200\ncpu 0 3 4\nmem 0 6\n"),
		// A schema re-declared mid-file, changed: the old slot of cpu 0
		// is next in line but must not be taken.
		[]byte(header + "100\ncpu 0 1 2\nmem 0 5\n!cpu user,E\n200\ncpu 0 3\nmem 0 6\n300\ncpu 0 4\nmem 0 7\n"),
		// ... and changed inside a record.
		[]byte(header + "100\ncpu 0 1 2\n!cpu idle,E user,E system,E\ncpu 0 3 4 5\nmem 0 6\n200\ncpu 0 7 8 9\nmem 0 1\n"),
		// Tab and double-space separators.
		[]byte(header + "100\ncpu\t0 1\t2\ncpu 1  3  4\nmem  0 5\n200\ncpu 0\t\t3 4\ncpu\t1 5 6\nmem 0\t7\n"),
		// 19-, 20- and 21-digit values: the largest uint64, a leading
		// zero, and one past the largest.
		[]byte(header + "100\ncpu 0 9999999999999999999 18446744073709551615\nmem 0 000000000000000000007\n"),
		[]byte(header + "100\ncpu 0 1 2\n200\ncpu 0 18446744073709551616 2\n"),
		[]byte(header + "100\ncpu 0 1 2\n200\ncpu 0 1 99999999999999999999\n"),
		// Extra tokens past the width, numeric and not.
		[]byte(header + "100\ncpu 0 1 2\n200\ncpu 0 1 2 3\n"),
		[]byte(header + "100\ncpu 0 1 2\n200\ncpu 0 1 2 x 99999999999999999999\n"),
		// A value that ends on a byte that is neither digit nor space.
		[]byte(header + "100\ncpu 0 1 2\n200\ncpu 0 12x 2\n"),
	}
}

// injectedSeeds runs the fault injector over a minimal clean archive
// and returns the parse-breaking files it produced (garbled line,
// mid-line truncation), so the fuzzer starts from the injector's real
// corruption shapes rather than hand-written approximations. The
// injector is byte-deterministic, so these seeds are stable.
func injectedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	src := filepath.Join(tb.TempDir(), "src")
	header := "$tacc_stats 2.0\n$hostname h\n$arch a\n!cpu user,E,U=cs idle,E\n"
	for _, host := range []string{"h0", "h1"} {
		dir := filepath.Join(src, host)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
		for day := 0; day < 2; day++ {
			var sb strings.Builder
			sb.WriteString(header)
			for rec := 0; rec < 3; rec++ {
				fmt.Fprintf(&sb, "%d\ncpu 0 %d %d\n", 1000+86400*day+600*rec, rec*5, rec*7)
			}
			name := filepath.Join(dir, fmt.Sprintf("%d.raw", day+1))
			if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
	dst := filepath.Join(tb.TempDir(), "dst")
	m, err := faultinject.Inject(src, dst, faultinject.Spec{
		Seed:     7,
		HostFrac: 1,
		Kinds:    []faultinject.Kind{faultinject.KindGarble, faultinject.KindTruncate},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	for _, f := range m.Faults {
		b, err := os.ReadFile(filepath.Join(dst, f.Host, f.File))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// corpusEntry renders one seed in the `go test fuzz v1` corpus file
// format.
func corpusEntry(seed []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
}

// TestSeedCorpusCommitted pins the committed seed corpus under
// testdata/fuzz/FuzzParseFile to the in-code seeds, so `go test` and
// `make fuzz-smoke` replay them even on machines with an empty fuzz
// cache. Regenerate with -update-corpus after changing fuzzSeedCorpus.
func TestSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseFile")
	seeds := fuzzSeedCorpus(t)
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
			t.Errorf("%s is stale (regenerate with -update-corpus):\n got  %q\n want %q",
				name, got, want)
		}
	}
}

// FuzzParseFile throws mutated raw files at the parser: it may not
// panic, it must accept exactly the files reference.Parse (the naive
// strconv and map-of-maps reading of the format) accepts, and on those
// it must read the same header, schemas and records, each record read
// off the layout's slots and presence bits (parseChecked).
func FuzzParseFile(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parseChecked(t, data)
	})
}
