// Package suite binds the supremmlint analyzers to the parts of the
// tree whose invariants they enforce. The analyzers themselves are
// scope-free (so analysistest can exercise them on testdata packages);
// this registry is the single place that says where each invariant
// holds, and DESIGN.md's "Static analysis" section documents why.
package suite

import (
	"slices"
	"strings"

	"supremm/internal/analysis"
	"supremm/internal/analysis/counterdelta"
	"supremm/internal/analysis/deferclose"
	"supremm/internal/analysis/errsink"
	"supremm/internal/analysis/globalrand"
	"supremm/internal/analysis/hotalloc"
	"supremm/internal/analysis/lockcheck"
	"supremm/internal/analysis/publishmut"
	"supremm/internal/analysis/untrustedlen"
	"supremm/internal/analysis/walltime"
)

// Scoped is an analyzer plus the package/file scope it applies to.
type Scoped struct {
	*analysis.Analyzer
	// Pkgs are the import paths the analyzer runs on; a trailing "/..."
	// takes in the package and every package below it.
	Pkgs []string
	// Files, when set, limits the analyzer to the files with these base
	// names in those packages.
	Files []string
}

// CoversPkg reports whether the scope takes in the package.
func (s Scoped) CoversPkg(pkgPath string) bool {
	for _, p := range s.Pkgs {
		if tree, ok := strings.CutSuffix(p, "/..."); ok {
			if pkgPath == tree || strings.HasPrefix(pkgPath, tree+"/") {
				return true
			}
		} else if pkgPath == p {
			return true
		}
	}
	return false
}

// CoversFile reports whether the scope takes in a file, by base name,
// of a package it covers.
func (s Scoped) CoversFile(base string) bool {
	return len(s.Files) == 0 || slices.Contains(s.Files, base)
}

// Analyzers returns the full supremmlint suite with its scopes.
func Analyzers() []Scoped {
	return []Scoped{
		{
			// Raw counters flow from procfs through taccstats into ingest;
			// everywhere else they are already reduced to float deltas.
			Analyzer: counterdelta.Analyzer,
			Pkgs:     []string{"supremm/internal/procfs", "supremm/internal/taccstats", "supremm/internal/ingest"},
		},
		{
			// The deterministic core: same (config, seed) in, bit-identical
			// artifacts out. internal/serve joins the scope because its
			// golden responses must not depend on the wall clock — the
			// daemon takes an injected clock (Config.Now) and the real
			// time.Now lives only in cmd/supremmd.
			Analyzer: walltime.Analyzer,
			Pkgs: []string{"supremm/internal/sim", "supremm/internal/workload", "supremm/internal/ingest",
				"supremm/internal/serve"},
		},
		{
			// Reproducibility is a whole-tree property: any package drawing
			// from the process-global generator can perturb a simulation.
			Analyzer: globalrand.Analyzer,
			Pkgs:     []string{"supremm/..."},
		},
		{
			// The declared hot paths: the streaming parser, the
			// schema-compiled interval reduction (its per-file allocation budget)
			// with its per-record callback (degrade.go's parseFileOnce)
			// and the per-interval fold (parallel.go's IngestRawOpts,
			// raw.go's sysBucket.fold), and the columnar store — its binary codec,
			// aggregation kernels and shard memo are the daemon's load
			// and query inner loops, and series.jsonl's line decoder.
			Analyzer: hotalloc.Analyzer,
			Pkgs:     []string{"supremm/internal/taccstats", "supremm/internal/ingest", "supremm/internal/store"},
			Files: []string{"stream.go", "format.go",
				"plan.go", "raw.go", "accumulator.go", "degrade.go", "parallel.go",
				"columns.go", "codec.go", "query.go", "index.go", "kernel.go", "memo.go", "shard.go", "series.go"},
		},
		{
			// The artifact emitters (report renderers, cmd tools writing
			// figures and warehouse files) plus the degraded-mode ingest
			// and fault injector: quarantine and retry decisions hinge on
			// seeing every I/O error, so none may be dropped there. The
			// query daemon is a sink too: a dropped response-write error
			// would silently truncate API replies, so internal/serve must
			// check every write (failures feed its write_failures metric).
			// internal/store joins the scope with the binary codec: a
			// dropped write error would leave a torn shard or manifest the
			// next reload fails on, or a torn jobs.supremm that shard
			// repair could not rebuild from.
			Analyzer: errsink.Analyzer,
			Pkgs: []string{"supremm/internal/report", "supremm/internal/ingest", "supremm/internal/faultinject",
				"supremm/internal/serve", "supremm/internal/store", "supremm/cmd/..."},
		},
		{
			// The packages where a leaked mutex is fatal to the
			// always-available promise: serve's reload/cache/metrics/
			// breaker locking, the store's internals, and the chaos
			// driver's shared state (faultinject.ServeChaos runs
			// concurrently with the client fleet it torments). A lock held
			// past a forgotten early return wedges every later reload or
			// query.
			Analyzer: lockcheck.Analyzer,
			Pkgs:     []string{"supremm/internal/serve", "supremm/internal/store", "supremm/internal/faultinject"},
		},
		{
			// Everywhere Columns/Snapshot values are built and published:
			// the store constructs them, serve swaps them through the
			// atomic pointer, ingest assembles them per realm. One
			// post-publish write reintroduces the reader race the
			// immutable-snapshot design exists to prevent.
			Analyzer: publishmut.Analyzer,
			Pkgs:     []string{"supremm/internal/store", "supremm/internal/serve", "supremm/internal/ingest"},
		},
		{
			// The decode surfaces that consume bytes this process did not
			// write: the store's binary codec and the taccstats parsers.
			// A length field must be bounds-checked before it sizes an
			// allocation, an index, or a copy.
			Analyzer: untrustedlen.Analyzer,
			Pkgs:     []string{"supremm/internal/store", "supremm/internal/taccstats"},
		},
		{
			// The reload paths and the cmd entry points open files by the
			// thousand (per-host archives) or per SIGHUP (snapshot,
			// realms); a descriptor leaked per iteration kills the daemon
			// with EMFILE long after the faulty commit landed.
			// faultinject joined when it grew the serve-layer chaos
			// drivers: its heal/tear paths open and rename files in loops.
			// internal/store joined with the self-healing pipeline: the
			// scrubber re-opens every shard each sweep, and the
			// quarantine/repair/atomic-write paths open files and
			// directory handles on the reload hot path.
			Analyzer: deferclose.Analyzer,
			Pkgs: []string{"supremm/internal/serve", "supremm/internal/ingest", "supremm/internal/faultinject",
				"supremm/internal/store", "supremm/cmd/..."},
		},
	}
}
