package reference_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"supremm/internal/reference"
	"supremm/internal/store"
)

// TestOnlyTestsImport enforces the package doc: no Go file of the module
// but a _test.go file imports this package.
func TestOnlyTestsImport(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "supremm/internal/reference" {
				t.Errorf("%s imports %s; only _test.go files may", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestImportsNeitherParserNorIngest keeps the raw-path oracle apart
// from what it checks: no package this one builds on, directly or
// through others, is taccstats or ingest, so their internal tests can
// import it without a cycle and it can share no code with them.
func TestImportsNeitherParserNorIngest(t *testing.T) {
	root := filepath.Join("..", "..")
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if pkg == "supremm/internal/taccstats" || pkg == "supremm/internal/ingest" {
			t.Errorf("internal/reference builds on %s", pkg)
			return
		}
		dir := filepath.Join(root, strings.TrimPrefix(pkg, "supremm/"))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, "supremm/") {
					visit(p)
				}
			}
		}
	}
	visit("supremm/internal/reference")
	if !seen["supremm/internal/store"] {
		t.Fatal("the walk never reached internal/store: it read no imports")
	}
}

// rows spreads jobs over five end days, out of day order, with the
// inputs that make sums tricky: NaN and ±Inf metrics, zero-node and
// zero-wallclock jobs, unsampled jobs.
func rows() []store.JobRecord {
	var out []store.JobRecord
	for i := 0; i < 600; i++ {
		day := int64(20000 + (i*7)%5)
		r := store.JobRecord{
			JobID: int64(i + 1), Cluster: []string{"ranger", "lonestar4"}[i%7/6],
			User: fmt.Sprintf("u%d", i%9), App: []string{"namd", "wrf", "amber"}[i%3],
			Science: []string{"Chemistry", "Physics"}[i%2], Status: []string{"completed", "failed"}[i%11/10],
			Nodes: i % 17, Samples: i % 4,
			End: day*store.SecondsPerDay + int64(37*i%86400),
		}
		r.Start = r.End - 600*int64(i%5)
		r.Submit = r.Start - 60
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = 0.1 * float64(i%23)
		if i%31 == 0 {
			r.CPUIdleFrac = math.NaN()
		}
		if i%41 == 0 {
			r.MemUsedGB = math.Inf(-1)
		}
		out = append(out, r)
	}
	return out
}

// TestMatchesDayShards holds the reference, over rows cut by ByEndDay,
// to the engine over the same rows written as a data directory's day
// shards and loaded back: the two share no code, so agreeing bit for
// bit on every filter shape — and on an empty selection — is what makes
// either a check on the other.
func TestMatchesDayShards(t *testing.T) {
	recs := rows()
	st := store.New()
	for _, r := range recs {
		st.Add(r)
	}
	dir := t.TempDir()
	if err := store.WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	ss, err := store.LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts := reference.ByEndDay(recs)
	if len(parts) != ss.NumShards() || len(parts) != 5 {
		t.Fatalf("ByEndDay cut %d days, the directory holds %d shards, want 5", len(parts), ss.NumShards())
	}
	mid := ss.ShardAt(2).Info()
	filters := []store.Filter{
		{}, {Cluster: "ranger", MinSamples: 1}, {User: "u3"}, {App: "wrf", Status: "failed"},
		{Science: "Physics", MinSamples: 2}, {EndAfter: mid.MinEnd, EndBefore: mid.MaxEnd},
		{Cluster: "nonesuch"}, {MinSamples: 1 << 40}, {MinSamples: -5},
	}
	metrics := []store.Metric{store.MetricCPUIdle, store.MetricMemUsed}
	for _, f := range filters {
		for _, m := range metrics {
			if got, want := parts.Aggregate(m, f), ss.Aggregate(m, f); !reference.Same(got, want) {
				t.Errorf("%+v %s: reference %+v, engine %+v", f, m, got, want)
			}
		}
		for _, k := range []store.GroupKey{store.ByUser, store.ByApp, store.ByScience, store.ByCluster, store.ByStatus, store.GroupKey(99)} {
			if got, want := parts.GroupBy(k, metrics, f), ss.GroupBy(k, metrics, f); !reference.Same(got, want) {
				t.Errorf("%+v group %s: reference %+v, engine %+v", f, k.Name(), got, want)
			}
		}
	}
}

// TestSame pins what the one comparison calls equal: floats by their
// bits, nil apart from empty, everything else deeply.
func TestSame(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct {
		a, b any
		want bool
	}{
		{nan, nan, true},
		{0.0, negZero, false},
		{store.Agg{Mean: nan}, store.Agg{Mean: nan}, true},
		{store.Agg{N: 1}, store.Agg{N: 2}, false},
		{[]float64(nil), []float64{}, false},
		{[]int{1, 2}, []int{1, 2}, true},
		{map[string]float64{"a": nan}, map[string]float64{"a": nan}, true},
		{map[string]float64{"a": 1}, map[string]float64{"b": 1}, false},
		{[]any{1, "x"}, []any{1, "x"}, true},
		{[]any{1}, []any{int64(1)}, false},
		{store.JobRecord{User: "a"}, store.JobRecord{User: "b"}, false},
		{nil, nil, true},
	} {
		if got := reference.Same(c.a, c.b); got != c.want {
			t.Errorf("Same(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
