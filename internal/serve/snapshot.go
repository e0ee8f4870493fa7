package serve

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/ingest"
	"supremm/internal/store"
)

// osOpen is the default file opener for snapshot loads; Config.Open
// replaces it in tests and the chaos harness (slow-fs injection).
func osOpen(path string) (io.ReadCloser, error) { return os.Open(path) }

// Snapshot is one immutable, fully loaded view of a data directory:
// the indexed store wrapped in a realm, the ingest quality report, and
// the fingerprint of the files it came from. The daemon swaps whole
// snapshots atomically, so a query either sees the old store or the new
// one — never a torn mixture.
type Snapshot struct {
	Gen         uint64
	Realm       *core.Realm
	Quality     *ingest.DataQuality
	Fingerprint string
	// Shards and ShardsReused describe the load: how many shard files
	// back the realm and how many were adopted pointer-wise from the
	// previous generation instead of decoded.
	Shards       int
	ShardsReused int
	// Coverage is the snapshot's honesty accounting (DESIGN.md §15):
	// rows served versus rows the manifest promised, with the missing
	// day ranges. Ratio 1 for a fully-healthy load.
	Coverage Coverage
	// shards is Realm.Store under its concrete type: what the next load
	// adopts unchanged days from and what the scrubber walks.
	shards *store.ShardSet
	// heal records what the healing load did (quarantines, repairs) for
	// the server's metrics; nil for strict loads.
	heal *healLoad
}

// snapshotFiles are the fixed-name data-directory members whose change
// forces a reload, in fingerprint order: the manifest every load starts
// from, the monolithic files shard repair rebuilds from (a backing that
// comes back must trigger the reload that repairs), the series and the
// quality report.
var snapshotFiles = []string{store.ManifestFile, "jobs.supremm", "jobs.jsonl", "series.jsonl", "quality.json"}

// DirFingerprint summarizes the load-relevant files of a data directory
// (size + mtime per file, plus every shard file the directory holds).
// The daemon polls this instead of watching the filesystem: cmd/ingest
// rewrites whole files, so a changed fingerprint is exactly "a new
// batch landed" — including a new day's shard appearing or an existing
// day's shard being rewritten.
func DirFingerprint(dir string) string {
	var fp strings.Builder
	stamp := func(path string) {
		fp.WriteString(filepath.Base(path))
		fp.WriteByte(':')
		if st, err := os.Stat(path); err == nil {
			fp.WriteString(strconv.FormatInt(st.Size(), 10))
			fp.WriteByte(',')
			fp.WriteString(strconv.FormatInt(st.ModTime().UnixNano(), 10))
		} else {
			fp.WriteString("absent")
		}
		fp.WriteByte(';')
	}
	for _, name := range snapshotFiles {
		stamp(filepath.Join(dir, name))
	}
	shardFiles, _ := filepath.Glob(filepath.Join(dir, "shard-*.supremm"))
	sort.Strings(shardFiles)
	for _, p := range shardFiles {
		stamp(p)
	}
	return fp.String()
}

// fileStamp extracts one file's "size,mtime-ns" (or "absent") from a
// DirFingerprint; "" when fp does not list the file.
func fileStamp(fp, name string) string {
	_, rest, _ := strings.Cut(fp, name+":")
	stamp, _, _ := strings.Cut(rest, ";")
	return stamp
}

// LoadRealm loads the job store (+ optional series.jsonl) from a data
// directory and assembles the realm, inferring the cluster shape from
// the records the way cmd/xdmod always has. The returned realm's store
// is unindexed; callers wanting indexed queries call BuildIndex.
func LoadRealm(dir string) (*core.Realm, error) {
	realm, _, err := loadRealm(dir, osOpen, nil, "", nil)
	return realm, err
}

// loadStore reads the job store. The manifest is the root of a data
// directory: it names every day shard with its size and hash, and the
// shards are loaded against it — incrementally against prev's, strictly
// or (heal != nil) with per-shard quarantine and repair. Nothing else in
// the directory is a load source: jobs.supremm and jobs.jsonl are repair
// backing (store.LoadBackingStore), so a directory without a manifest is
// not a data directory, whatever else it holds.
func loadStore(dir string, open func(path string) (io.ReadCloser, error), prev *store.ShardSet, heal *healLoad) (*store.ShardSet, error) {
	mf, err := open(filepath.Join(dir, store.ManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("serve: no %s (cmd/ingest writes it): %w", store.ManifestFile, err)
	}
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	mdata, err := io.ReadAll(mf)
	if err != nil {
		return nil, err
	}
	entries, err := store.DecodeManifest(mdata)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", store.ManifestFile, err)
	}
	if heal == nil {
		return store.LoadShards(dir, entries, prev, store.Opener(open))
	}
	// Self-heal path: per-shard fault isolation with quarantine and
	// repair instead of all-or-nothing (see heal.go).
	heal.entries = entries
	return healShardLoad(dir, entries, prev, store.Opener(open), heal)
}

// loadRealm is LoadRealm with the file opener, the previous generation
// (with fp, the directory fingerprint taken just before this load), and
// the self-heal context injected — the daemon's snapshot loads route
// through Config.Open, incremental reuse of what did not change, and
// (when enabled) quarantine/repair here. The shard set is returned
// beside the realm that wraps it.
func loadRealm(dir string, open func(path string) (io.ReadCloser, error), prev *Snapshot, fp string, heal *healLoad) (*core.Realm, *store.ShardSet, error) {
	var prevShards *store.ShardSet
	if prev != nil {
		prevShards = prev.shards
	}
	st, err := loadStore(dir, open, prevShards, heal)
	if err != nil {
		return nil, nil, err
	}
	// Only a missing series.jsonl means "no series"; any other open error
	// fails the attempt like the shard files do, so an unreadable file
	// cannot publish a generation with an empty time series.
	var series []store.SystemSample
	sf, err := open(filepath.Join(dir, "series.jsonl"))
	switch {
	case err == nil:
		defer sf.Close()
		if prev != nil && len(prev.Realm.Series) > 0 && fileStamp(fp, "series.jsonl") == fileStamp(prev.Fingerprint, "series.jsonl") {
			// Same size and mtime as the file the previous generation
			// decoded (the witness the poller already trusts): adopt its
			// samples. The caller's post-load fingerprint check catches
			// a rewrite racing this load.
			series = prev.Realm.Series
		} else if series, err = store.LoadSeries(sf); err != nil {
			return nil, nil, err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, nil, err
	}
	// Infer the cluster shape from the first row; the active-node peak in
	// the series keeps the peak-TF scale honest for scaled runs.
	name := "unknown"
	if st.Len() > 0 {
		c := &st.ShardAt(0).Columns().Cluster
		name = c.Values[c.Codes[0]]
	}
	cc := cluster.RangerConfig()
	if name == "lonestar4" {
		cc = cluster.Lonestar4Config()
	}
	nodes := cc.Nodes
	if len(series) > 0 {
		peak := 0
		for _, s := range series {
			if s.ActiveNodes > peak {
				peak = s.ActiveNodes
			}
		}
		if peak > 0 {
			nodes = peak
		}
	}
	cc = cc.Scaled(nodes)
	return core.NewRealm(name, cc.CoresPerNode(), cc.MemPerNodeGB, cc.PeakTFlops(), st, series), st, nil
}

// LoadQuality reads the directory's ingest quality report; a missing
// file is not an error (cmd/simulate writes none), it just means no
// completeness view.
func LoadQuality(dir string) (*ingest.DataQuality, error) {
	q, err := ingest.LoadQuality(filepath.Join(dir, "quality.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return q, err
}

// loadSnapshot reads the data directory into an immutable indexed
// snapshot. A load racing an in-flight ingest rewrite can fail
// transiently (half-written JSON); the retry/backoff idiom from
// internal/ingest applies — retryMax extra attempts with the injected
// backoff between them.
// prev, when non-nil, enables incremental reuse: shards whose manifest
// entry (and on-disk size) are unchanged from the previous snapshot's
// set are adopted by pointer instead of re-decoded, and so is the
// decoded series when series.jsonl kept its fingerprint stamp, making
// a one-day append reload O(1 day) instead of O(history).
// heal is the optional self-heal context: non-nil routes the shard
// load through quarantine/repair and fills the snapshot's coverage
// accounting from what survived; nil is the strict all-or-nothing load.
func loadSnapshot(dir string, gen uint64, retryMax int, backoff func(attempt int), open func(path string) (io.ReadCloser, error), prev *Snapshot, heal *healLoad) (*Snapshot, error) {
	var lastErr error
	for attempt := 0; attempt <= retryMax; attempt++ {
		if attempt > 0 && backoff != nil {
			backoff(attempt)
		}
		if heal != nil {
			heal.outcome = healOutcome{} // a retry is a fresh heal attempt
		}
		fp := DirFingerprint(dir)
		realm, shards, err := loadRealm(dir, open, prev, fp, heal)
		if err != nil {
			lastErr = err
			continue
		}
		quality, err := LoadQuality(dir)
		if err != nil {
			lastErr = err
			continue
		}
		if post := DirFingerprint(dir); post != fp {
			if heal == nil || !heal.outcome.mutated {
				// The directory changed mid-load; what we read may mix
				// batches. Treat as transient and retry.
				lastErr = fmt.Errorf("serve: %s changed during load", dir)
				continue
			}
			// The healing load itself moved files (quarantine renames,
			// repair rewrites); adopt the post-heal fingerprint so the
			// poll loop does not re-fire on our own mutations. A racing
			// ingest writer is still caught: its next file lands after
			// this stat pass and changes the fingerprint again.
			fp = post
		}
		// Indexing skips shards adopted from prev (they already carry
		// their postings), so an incremental reload indexes only the new
		// day's rows.
		shards.BuildIndex()
		snap := &Snapshot{
			Gen: gen, Realm: realm, Quality: quality, Fingerprint: fp,
			Shards: shards.NumShards(), ShardsReused: shards.LoadStats().Reused,
			Coverage: fullCoverage(shards.Len()), shards: shards, heal: heal,
		}
		if heal != nil {
			snap.Coverage = coverageFrom(heal.entries, heal.outcome.faults)
		}
		return snap, nil
	}
	return nil, fmt.Errorf("serve: load %s: %w", dir, lastErr)
}
