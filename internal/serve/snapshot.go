package serve

import (
	"errors"
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
// the shard set wrapped in a realm, the ingest quality report, and
// the fingerprint of the files it came from. The daemon swaps whole
// snapshots atomically, so a query either sees the old store or the new
// one — never a torn mixture. Only the reload sequence (reload.go)
// makes and publishes them.
type Snapshot struct {
	// Gen numbers the published snapshots 1, 2, 3, ...: a load that
	// fails uses no number up.
	Gen         uint64
	Realm       *core.Realm
	Quality     *ingest.DataQuality
	Fingerprint string
	// Shards and ShardsReused describe the load: how many shard files
	// back the realm and how many were adopted pointer-wise from the
	// previous generation instead of decoded.
	Shards       int
	ShardsReused int
	// Coverage is the snapshot's honesty accounting (DESIGN.md §15.4):
	// rows served versus rows the manifest it was loaded from promised,
	// with the missing day ranges. Ratio 1 for a fully-healthy load.
	Coverage Coverage
	// shards is Realm.Store under its concrete type: what the next load
	// adopts unchanged days from and what the scrubber walks.
	shards *store.ShardSet
	// seriesStamp is series.jsonl's size and mtime when Realm.Series was
	// decoded; the next load adopts the samples while the file still
	// carries it.
	seriesStamp string
	// cache holds the responses rendered from this snapshot, and only
	// those: what a request finds here was computed on these rows.
	cache *responseCache
}

// snapshotFiles are the fixed-name data-directory members whose change
// forces a reload, in fingerprint order: the manifest every load starts
// from, the monolithic files shard repair rebuilds from (a backing that
// comes back must trigger the reload that repairs), the series and the
// quality report.
var snapshotFiles = []string{store.ManifestFile, store.JobsColumnarFile, store.JobsFile, store.SeriesFile, store.QualityFile}

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

// LoadRealm loads the job store (+ optional series.jsonl) from a data
// directory — the manifest and the shards it names, strictly — and
// assembles the realm, inferring the cluster shape from the records the
// way cmd/xdmod always has.
func LoadRealm(dir string) (*core.Realm, error) {
	snap, err := (&reloader{dir: dir, open: osOpen}).read(&trip{}, nil)
	if err != nil {
		return nil, err
	}
	return snap.Realm, nil
}

// newRealm wraps a loaded shard set and series in a realm. The cluster
// shape is the preset the first row names (Ranger's for a name no
// preset has); the active-node peak in the series keeps the peak-TF
// scale honest for scaled runs.
func newRealm(st *store.ShardSet, series []store.SystemSample) *core.Realm {
	name := "unknown"
	if st.Len() > 0 {
		c := &st.ShardAt(0).Columns().Cluster
		name = c.Values[c.Codes[0]]
	}
	cc, ok := cluster.Preset(name)
	if !ok {
		cc = cluster.RangerConfig()
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
	return core.NewRealm(name, cc.CoresPerNode(), cc.MemPerNodeGB, cc.PeakTFlops(), st, series)
}

// LoadQuality reads the directory's ingest quality report; a missing
// file is not an error (a simulated batch has none, and cmd/simulate
// removes an earlier ingest's), it just means no completeness view.
func LoadQuality(dir string) (*ingest.DataQuality, error) {
	q, err := ingest.LoadQuality(filepath.Join(dir, store.QualityFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return q, err
}
