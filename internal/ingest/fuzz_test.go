package ingest

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"

	"supremm/internal/faultinject"
	"supremm/internal/reference"
	"supremm/internal/sched"
	"supremm/internal/taccstats"
	"supremm/internal/workload"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the committed testdata/fuzz seed corpus from ingestSeedCorpus")

// fuzzHosts are the archive's hosts; an input fills the first two, or
// all three.
var fuzzHosts = []string{"h0", "h1", "h2"}

// fuzzAcct is the fuzzed archives' fixed accounting: one job on every
// host, a second on two of them after a gap, and an idle tail after
// both; on h2 a third job runs inside the first. Job 1 ends between two
// of the seeds' 600 s samples, so an interval attributed at its end
// lands elsewhere than at its midpoint.
var fuzzAcct = []sched.AcctRecord{
	{Cluster: "ranger", Owner: "alice", JobName: "namd", JobID: 1, Account: "Physics",
		Submit: 900, Start: 1000, End: 3200, Status: workload.Completed, Slots: 48,
		NodeList: []string{"h0", "h1", "h2"}},
	{Cluster: "ranger", Owner: "bob", JobName: "wrf", JobID: 2, Account: "Chemistry",
		Submit: 3000, Start: 3600, End: 90000, Status: workload.Failed, Slots: 32,
		NodeList: []string{"h0", "h1"}},
	{Cluster: "ranger", Owner: "carol", JobName: "lammps", JobID: 3, Account: "Materials",
		Submit: 1100, Start: 1200, End: 1400, Status: workload.Completed, Slots: 16,
		NodeList: []string{"h2"}},
}

// fuzzArchive splits one fuzz input at NUL bytes into the day files
// h0/1.raw, h0/2.raw, h1/1.raw, h1/2.raw, then h2/1.raw and h2/2.raw
// when there are more than four parts; files with no part are empty.
func fuzzArchive(data []byte) fstest.MapFS {
	parts := bytes.SplitN(data, []byte{0}, 2*len(fuzzHosts))
	hosts := 2
	if len(parts) > 4 {
		hosts = 3
	}
	fsys := fstest.MapFS{}
	for i := 0; i < 2*hosts; i++ {
		var content []byte
		if i < len(parts) {
			content = parts[i]
		}
		fsys[fmt.Sprintf("%s/%d.raw", fuzzHosts[i/2], i%2+1)] = &fstest.MapFile{Data: content}
	}
	return fsys
}

// joinArchive is fuzzArchive's inverse: the files of the first hosts,
// two per host in day order, as one input.
func joinArchive(files ...[]byte) []byte { return bytes.Join(files, []byte{0}) }

// ingestSeedCorpus is FuzzIngestDifferential's seeds:
//   - the equivalence tree (three hosts, a zero-dt rotate across the day
//     boundary, a PMC reset, an idle tail);
//   - the fault injector's seven kinds, each on h0 beside a clean h1;
//   - a type re-declared with a changed schema after its data was read;
//   - a record that lost its ib line, and one that lost a cpu line;
//   - a day file whose first record lacks a device of the day before;
//   - three faulty files on two hosts, for a strict run's first fault;
//   - h2 sampled across job 3, which runs inside job 1.
func ingestSeedCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	writeEquivalenceTree(tb, dir)
	var tree [][]byte
	for _, host := range []string{"c100-000.ranger", "c100-001.ranger", "c100-002.ranger"} {
		for _, name := range []string{"0.raw", "1.raw"} {
			tree = append(tree, readFile(tb, filepath.Join(dir, host, name)))
		}
	}
	seeds := [][]byte{joinArchive(tree...)}
	seeds = append(seeds, injectedSeeds(tb)...)

	const head = "$tacc_stats 2.0\n$hostname h\n$arch amd64_opteron\n!cpu user,E,U=cs idle,E,U=cs\n"
	seeds = append(seeds, joinArchive(
		[]byte(head+"1000\ncpu 0 0 500\n1600\ncpu 0 60000 500\n2200\ncpu 0 120000 500\n"),
		[]byte(head+"2800\ncpu 0 180000 500\n3400\n!cpu idle,E,U=cs user,E,U=cs\ncpu 0 500 240000\n4000\ncpu 0 500 300000\n"),
	))

	// Absent reads zero: the record at 1600 lost h0's ib line, so the
	// interval after it reads the whole counter as its delta; the record
	// at 1600 lost h1's cpu 1 line, which counts as a reset.
	const lost = "$tacc_stats 2.0\n$hostname h\n$arch amd64_opteron\n" +
		"!cpu user,E,U=cs idle,E,U=cs\n!ib tx_bytes,E,U=B rx_bytes,E,U=B\n"
	seeds = append(seeds, joinArchive(
		[]byte(lost+"1000\ncpu 0 100 900\nib mlx4_0.1 1000000000000 1000000000000\n"+
			"1600\ncpu 0 700 900\n"+
			"2200\ncpu 0 1300 900\nib mlx4_0.1 1000001000000 1000001000000\n"),
		nil,
		[]byte(lost+"1000\ncpu 0 100 900\ncpu 1 100 900\n"+
			"1600\ncpu 0 700 900\n"+
			"2200\ncpu 0 1300 900\ncpu 1 1300 900\n"),
		nil,
	))

	// A device of one day file that the next file's first record lacks
	// reads zero there too: its CPU counters moved backwards.
	seeds = append(seeds, joinArchive(
		[]byte(head+"1000\ncpu 0 0 500\ncpu 1 0 500\n1600\ncpu 0 600 500\ncpu 1 600 500\n"),
		[]byte(head+"2200\ncpu 0 1200 500\n2800\ncpu 0 1800 500\ncpu 1 1800 500\n"),
	))

	good := head + "1000\ncpu 0 0 500\n1600\ncpu 0 600 500\n"
	seeds = append(seeds, joinArchive(
		[]byte(head+"1000\ncpu 0 0 x\n"),
		[]byte(head+"2800\ncpu 0 1 2 3\n"),
		[]byte(good),
		[]byte(head+"100 weird\n"),
	))

	// Job 3 holds the first interval's midpoint (1300) inside job 1's
	// window; job 1 keeps the two after it.
	seeds = append(seeds, joinArchive(
		[]byte(good), nil, []byte(good), nil,
		[]byte(head+"1000\ncpu 0 0 500\n1600\ncpu 0 60000 500\n2200\ncpu 0 120000 500\n2800\ncpu 0 180000 500\n"), nil,
	))
	return seeds
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// injectedSeeds runs the fault injector over a clean archive of seven
// hosts with three day files each, one kind per host, and makes one
// seed of each corrupted host: its last two day files (the ones the
// kind touched; for a missing day, the two around the gap) on h0, its
// clean ones on h1.
func injectedSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	src := filepath.Join(tb.TempDir(), "src")
	kinds := faultinject.AllKinds()
	for h := range kinds {
		dir := filepath.Join(src, fmt.Sprintf("n%d", h))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
		for day := 0; day < 3; day++ {
			var sb strings.Builder
			sb.WriteString("$tacc_stats 2.0\n$hostname n\n$arch amd64_opteron\n" +
				"!cpu user,E,U=cs system,E,U=cs idle,E,U=cs\n!mem MemUsed,U=KB\n" +
				"!llite read_bytes,E,U=B write_bytes,E,U=B\n")
			for rec := 0; rec < 5; rec++ {
				ts := 1000 + 86400*day + 600*rec
				el := uint64(ts-1000) / 10
				fmt.Fprintf(&sb, "%d\n", ts)
				for c := 0; c < 2; c++ {
					fmt.Fprintf(&sb, "cpu %d %d %d %d\n", c, el*7+uint64(h), el, el*2)
				}
				fmt.Fprintf(&sb, "mem 0 %d\n", 4096+uint64(h*rec))
				fmt.Fprintf(&sb, "llite scratch %d %d\nllite work %d %d\n", el*1000, el*3000, el*10, el*20)
			}
			name := filepath.Join(dir, taccstats.DayFileName(day+1))
			if err := os.WriteFile(name, []byte(sb.String()), 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
	dst := filepath.Join(tb.TempDir(), "dst")
	if _, err := faultinject.Inject(src, dst, faultinject.Spec{Seed: 7, HostFrac: 1, Kinds: kinds}); err != nil {
		tb.Fatal(err)
	}
	lastTwo := func(root, host string) [][]byte {
		entries, err := os.ReadDir(filepath.Join(root, host))
		if err != nil {
			tb.Fatal(err)
		}
		names := taccstats.DayFiles(entries)
		var out [][]byte
		for _, name := range names[len(names)-2:] {
			out = append(out, readFile(tb, filepath.Join(root, host, name)))
		}
		return out
	}
	var seeds [][]byte
	for h := range kinds {
		host := fmt.Sprintf("n%d", h)
		seeds = append(seeds, joinArchive(append(lastTwo(dst, host), lastTwo(src, host)...)...))
	}
	return seeds
}

// corpusEntry renders one seed in the `go test fuzz v1` corpus file
// format.
func corpusEntry(seed []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
}

// TestIngestSeedCorpusCommitted pins the committed seed corpus under
// testdata/fuzz/FuzzIngestDifferential to the in-code seeds, so `go
// test` and `make fuzz-smoke` replay them even with an empty fuzz
// cache. Regenerate with -update-corpus after changing
// ingestSeedCorpus.
func TestIngestSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzIngestDifferential")
	seeds := ingestSeedCorpus(t)
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

// FuzzIngestDifferential holds the raw-path ETL to reference.Ingest on
// mutated archives: IngestRawOpts at one and two workers, lenient and
// strict, must produce the reference's job records and series bit for
// bit and its quality field by field, and a strict run must stop at the
// reference's (host, file).
func FuzzIngestDifferential(f *testing.F) {
	for _, seed := range ingestSeedCorpus(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := fuzzArchive(data)
		for _, policy := range []Policy{Lenient, Strict} {
			want, werr := reference.Ingest(fsys, fuzzAcct, policy == Strict)
			var fault *reference.Fault
			if werr != nil && !errors.As(werr, &fault) {
				t.Fatalf("%s: reference: %v", policy, werr)
			}
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("%s workers=%d", policy, workers)
				got, err := IngestRawOpts("", fuzzAcct, Options{Policy: policy, Workers: workers, FS: fsys})
				if fault != nil {
					var fe *FaultError
					if !errors.As(err, &fe) || fe.Host != fault.Host || fe.File != fault.File {
						t.Fatalf("%s: error %v, the reference stops at %s/%s", label, err, fault.Host, fault.File)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v; the reference accepts the archive", label, err)
				}
				requireReference(t, label, want, got)
			}
		}
	})
}
