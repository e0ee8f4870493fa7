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
	// Source records which jobs backing served the load: "shards"
	// (MANIFEST.supremm + shard files), "binary" (jobs.supremm) or
	// "jsonl" (jobs.jsonl). Whatever the file, the realm's store is the
	// same day-partitioned shard set, so the three paths produce
	// bit-identical responses (see TestGoldenLoadPaths); Source decides
	// only what has files to scrub, repair and adopt.
	Source string
	// Shards and ShardsReused describe a load from shard files: how many
	// back the realm and how many were adopted pointer-wise from the
	// previous generation instead of decoded (both zero for monolithic
	// sources, whose day partitions exist only in memory).
	Shards       int
	ShardsReused int
	// Coverage is the snapshot's honesty accounting (DESIGN.md §15):
	// rows served versus rows the manifest promised, with the missing
	// day ranges. Ratio 1 for monolithic and fully-healthy loads.
	Coverage Coverage
	// heal records what the healing load did (quarantines, repairs) for
	// the server's metrics; nil for strict loads.
	heal *healLoad
}

// snapshotFiles are the fixed-name data-directory members whose change
// forces a reload, in fingerprint order. The manifest is listed first:
// the sharded form is the preferred load source.
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
	realm, _, err := LoadRealmSource(dir)
	return realm, err
}

// loadStore reads the job store, preferring the time-partitioned shard
// form (MANIFEST.supremm + shard-<day>.supremm, loaded incrementally
// against prev's shards), then the monolithic columnar binary
// (jobs.supremm), then JSON lines (jobs.jsonl). A monolithic file is
// partitioned by job-end day in memory: a sum is the day-ordered sum of
// per-day sums (DESIGN.md §11), so every backing must hand the kernels
// the same split to answer with the same bits. A preferred form that
// exists but fails to load is an error, not a fallback: the files are
// written by the same ingest batch, so a damaged manifest or shard
// alongside readable fallbacks means the directory is torn and the
// load should retry, not silently serve another file.
func loadStore(dir string, open func(path string) (io.ReadCloser, error), prev *store.ShardSet, heal *healLoad) (*store.ShardSet, string, error) {
	mf, err := open(filepath.Join(dir, store.ManifestFile))
	if err == nil {
		defer mf.Close()
		mdata, err := io.ReadAll(mf)
		if err != nil {
			return nil, "", err
		}
		entries, err := store.DecodeManifest(mdata)
		if err != nil {
			return nil, "", fmt.Errorf("serve: %s: %w", store.ManifestFile, err)
		}
		var ss *store.ShardSet
		if heal != nil {
			// Self-heal path: per-shard fault isolation with quarantine and
			// repair instead of all-or-nothing (see heal.go).
			heal.entries = entries
			ss, err = healShardLoad(dir, entries, prev, store.Opener(open), heal)
		} else {
			ss, err = store.LoadShards(dir, entries, prev, store.Opener(open))
		}
		if err != nil {
			return nil, "", err
		}
		return ss, SourceShards, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, "", err
	}
	bf, err := open(filepath.Join(dir, "jobs.supremm"))
	if err == nil {
		defer bf.Close()
		st, err := store.LoadBinary(bf)
		if err != nil {
			return nil, "", fmt.Errorf("serve: jobs.supremm: %w", err)
		}
		return st.DayShards(), SourceBinary, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, "", err
	}
	jf, err := open(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return nil, "", err
	}
	defer jf.Close()
	st, err := store.Load(jf)
	if err != nil {
		return nil, "", err
	}
	return st.DayShards(), SourceJSONL, nil
}

// Snapshot source labels.
const (
	SourceShards = "shards"
	SourceBinary = "binary"
	SourceJSONL  = "jsonl"
)

// LoadRealmSource is LoadRealm plus the job-store source label
// (SourceShards, SourceBinary or SourceJSONL).
func LoadRealmSource(dir string) (*core.Realm, string, error) {
	return loadRealmSource(dir, osOpen, nil, "", nil)
}

// loadRealmSource is LoadRealmSource with the file opener, the
// previous generation (with fp, the directory fingerprint taken just
// before this load), and the self-heal context injected — the daemon's
// snapshot loads route through Config.Open, incremental reuse of what
// did not change, and (when enabled) quarantine/repair here.
func loadRealmSource(dir string, open func(path string) (io.ReadCloser, error), prev *Snapshot, fp string, heal *healLoad) (*core.Realm, string, error) {
	var prevShards *store.ShardSet
	if prev != nil && prev.Source == SourceShards {
		prevShards = prev.Realm.Store.(*store.ShardSet)
	}
	st, source, err := loadStore(dir, open, prevShards, heal)
	if err != nil {
		return nil, "", err
	}
	// Only a missing series.jsonl means "no series"; any other open error
	// fails the attempt like the jobs files do, so an unreadable file
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
			return nil, "", err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, "", err
	}
	// Infer the cluster shape from the records; the active-node peak in
	// the series keeps the peak-TF scale honest for scaled runs.
	name := "unknown"
	if st.Len() > 0 {
		name = st.Record(0).Cluster
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
	return core.NewRealm(name, cc.CoresPerNode(), cc.MemPerNodeGB, cc.PeakTFlops(), st, series), source, nil
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
		realm, source, err := loadRealmSource(dir, open, prev, fp, heal)
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
		realm.Store.BuildIndex()
		snap := &Snapshot{Gen: gen, Realm: realm, Quality: quality, Fingerprint: fp, Source: source, heal: heal}
		snap.Coverage = fullCoverage(realm.Store.Len())
		if source == SourceShards {
			ss := realm.Store.(*store.ShardSet)
			snap.Shards = ss.NumShards()
			snap.ShardsReused = ss.LoadStats().Reused
			if heal != nil {
				snap.Coverage = coverageFrom(heal.entries, heal.outcome.faults)
			}
		}
		return snap, nil
	}
	return nil, fmt.Errorf("serve: load %s: %w", dir, lastErr)
}
