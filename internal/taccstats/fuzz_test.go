package taccstats

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"supremm/internal/faultinject"
	"supremm/internal/procfs"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the committed testdata/fuzz seed corpus from fuzzSeedCorpus")

// fuzzSeedCorpus renders the round-trip fixture plus the malformed-input
// corpus exercised by TestParseRejectsMalformed, so the fuzzer starts
// from both accepting and rejecting paths.
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
	return append(seeds, injectedSeeds(tb)...)
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
// panic, two passes must agree on accept/reject and on every
// materialized record, and on accepted inputs each streamed record's
// layout-resolved reads must equal its materialized copy's.
func FuzzParseFile(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, errFile := parseFile(bytes.NewReader(data))

		var streamed []Record
		sf, errStream := ParseStream(bytes.NewReader(data), func(rec *Record) error {
			m := rec.Materialize()
			for typ, devs := range m.Data {
				schemas := map[string]procfs.Schema{typ: rec.Layout().byName[typ].schema}
				for dev := range devs {
					for _, k := range schemas[typ] {
						got, gok := rec.Get(nil, typ, dev, k.Name)
						want, wok := m.Get(schemas, typ, dev, k.Name)
						if got != want || gok != wok {
							t.Fatalf("record %d %s/%s/%s: streamed %d (%v), materialized %d (%v)",
								len(streamed), typ, dev, k.Name, got, gok, want, wok)
						}
					}
				}
			}
			streamed = append(streamed, m)
			return nil
		})

		if (errFile == nil) != (errStream == nil) {
			t.Fatalf("first pass err=%v, second pass err=%v", errFile, errStream)
		}
		if errFile != nil {
			return
		}
		if pf.Hostname != sf.Hostname || pf.Arch != sf.Arch || pf.Version != sf.Version {
			t.Fatalf("headers differ: %+v vs %+v", pf, sf)
		}
		if !reflect.DeepEqual(pf.Schemas, sf.Schemas) {
			t.Fatalf("schemas differ")
		}
		if !reflect.DeepEqual(pf.Records, streamed) {
			t.Fatalf("two passes materialized different records:\n first  %+v\n second %+v", pf.Records, streamed)
		}
	})
}
