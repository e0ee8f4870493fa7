package serve

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"

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
// the witness of the files it came from. The daemon swaps whole
// snapshots atomically, so a query either sees the old store or the new
// one — never a torn mixture. Only the reload sequence (reload.go)
// makes and publishes them.
type Snapshot struct {
	// Gen numbers the published snapshots 1, 2, 3, ...: a load that
	// fails uses no number up.
	Gen     uint64
	Realm   *core.Realm
	Quality *ingest.DataQuality
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
	// manifest is the entries the snapshot was loaded from, in day
	// order, and since maps each shard it serves to the generation that
	// first served that shard (/debug/shards).
	manifest []store.ShardInfo
	since    map[*store.Shard]uint64
	// witness is every file the load read, stamped before its open: what
	// the poll compares and what the next load adopts series.jsonl by.
	witness witness
	// cache holds the responses rendered from this snapshot, and only
	// those: what a request finds here was computed on these rows.
	cache *responseCache
}

// witness is what a generation read: per file name, its size and mtime
// (or absence, the zero stamp) stat'ed just before its open (DESIGN.md
// §13.2). The daemon polls it instead of watching the filesystem:
// writers replace whole files, so a moved stamp is a file landed since.
type witness map[string]fileStamp

type fileStamp struct {
	present     bool
	size, mtime int64
}

// take stamps dir's file name into w and returns the stamp.
func (w witness) take(dir, name string) fileStamp {
	w[name] = stampOf(dir, name)
	return w[name]
}

// holds reports whether every file w stamped still carries its stamp.
func (w witness) holds(dir string) bool {
	for name, s := range w {
		if stampOf(dir, name) != s {
			return false
		}
	}
	return true
}

func stampOf(dir, name string) fileStamp {
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return fileStamp{}
	}
	return fileStamp{true, st.Size(), st.ModTime().UnixNano()}
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
// preset has, under the row's name); the active-node peak in the series keeps the peak-TF
// scale honest for scaled runs.
func newRealm(st *store.ShardSet, series []store.SystemSample) *core.Realm {
	name := "unknown"
	if st.Len() > 0 {
		c := st.ShardAt(0).Columns().KeyColumn(store.ByCluster)
		name = c.Values[c.Codes[0]]
	}
	cc, ok := cluster.Preset(name)
	if !ok {
		cc = cluster.RangerConfig()
		cc.Name = name
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
	return core.NewRealm(cc.Scaled(nodes), st, series)
}

// LoadQuality reads the directory's ingest quality report; a missing
// file is not an error (a simulated batch has none, and cmd/simulate
// removes an earlier ingest's), it just means no completeness view.
func LoadQuality(dir string) (*ingest.DataQuality, error) { return readQuality(dir, osOpen) }

// readQuality is LoadQuality through an open seam.
func readQuality(dir string, open func(path string) (io.ReadCloser, error)) (*ingest.DataQuality, error) {
	path := filepath.Join(dir, store.QualityFile)
	f, err := open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ingest.ReadQuality(f, path)
}
