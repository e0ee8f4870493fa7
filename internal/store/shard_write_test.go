package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"supremm/internal/faultinject"
)

// fixedTime is an mtime no test run produces on its own.
var fixedTime = time.Unix(1_600_000_000, 0)

// dirIdentity stats every file of dir. Two stats of one name describe
// the same file instance when os.SameFile holds and the mtime did not
// move; AtomicWriteBytes always lands a new inode.
func dirIdentity(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]os.FileInfo, len(des))
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = info
	}
	return out
}

// rewritten lists the names whose file instance differs between two
// dirIdentity passes (new, replaced or removed), sorted.
func rewritten(before, after map[string]os.FileInfo) []string {
	var names []string
	for name, a := range after {
		if b, ok := before[name]; !ok || !os.SameFile(a, b) || !a.ModTime().Equal(b.ModTime()) {
			names = append(names, name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func requireRewritten(t *testing.T, label string, before, after map[string]os.FileInfo, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := rewritten(before, after); !slices.Equal(got, want) {
		t.Fatalf("%s: rewrote %v, want exactly %v", label, got, want)
	}
}

// TestWriteShardDirAppendWritesOneDay: landing a store that grew by one
// day replaces the manifest and creates that day's shard; every other
// file keeps its inode and mtime. Growing an existing day instead
// replaces that day's shard.
func TestWriteShardDirAppendWritesOneDay(t *testing.T) {
	dir, st, entries, _ := healFixture(t, 3000)
	last := entries[len(entries)-1]

	r := st.Record(st.Len() - 1)
	r.JobID, r.End = 1<<50, last.MaxEnd+SecondsPerDay
	st.Add(r)
	before := dirIdentity(t, dir)
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	requireRewritten(t, "new day", before, dirIdentity(t, dir), ShardFileName(last.ID+1), ManifestFile)

	r.JobID, r.End = 1<<51, last.MaxEnd
	st.Add(r)
	before = dirIdentity(t, dir)
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	requireRewritten(t, "grown day", before, dirIdentity(t, dir), ShardFileName(last.ID), ManifestFile)

	ss, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != st.Len() || ss.NumShards() != len(entries)+1 {
		t.Fatalf("reloaded %d rows in %d shards, want %d in %d", ss.Len(), ss.NumShards(), st.Len(), len(entries)+1)
	}
}

// TestWriteShardDirRewritesDamagedShards: the skip's witness is the
// file's content. A shard damaged in any way the stat cannot see, or
// that cannot be read at all, is written again — and one whose stat
// moved while its bytes did not is left alone.
func TestWriteShardDirRewritesDamagedShards(t *testing.T) {
	dir, st, entries, good := healFixture(t, 3000)
	chaos := faultinject.NewServeChaos(7, dir, good)
	damage := []struct {
		name    string
		apply   func(path, name string) error
		rewrite bool
	}{
		{"bit rot, size and mtime preserved", func(_, name string) error { return chaos.RotFile(name, 1) }, true},
		{"truncated", func(path, _ string) error { return os.Truncate(path, int64(len(good[filepath.Base(path)])/2)) }, true},
		{"grown", func(path, name string) error {
			return os.WriteFile(path, append(append([]byte(nil), good[name]...), 0), 0o644)
		}, true},
		{"deleted", func(path, _ string) error { return os.Remove(path) }, true},
		{"unreadable (open fails)", func(path, name string) error {
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.Symlink(name, path) // a link to itself: open returns ELOOP
		}, true},
		{"touched, bytes intact", func(path, _ string) error {
			return os.Chtimes(path, fixedTime, fixedTime)
		}, false},
	}
	for i, d := range damage {
		victim := entries[i%len(entries)]
		name := ShardFileName(victim.ID)
		path := filepath.Join(dir, name)
		if err := d.apply(path, name); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		before := dirIdentity(t, dir)
		if err := WriteShardDir(dir, st); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		want := []string{ManifestFile}
		if d.rewrite {
			want = append(want, name)
		}
		requireRewritten(t, d.name, before, dirIdentity(t, dir), want...)
		if err := verifyShard(dir, victim); err != nil {
			t.Errorf("%s: shard does not verify after WriteShardDir: %v", d.name, err)
		}
		if info, err := os.Lstat(path); err != nil || !info.Mode().IsRegular() {
			t.Errorf("%s: shard is not a regular file afterwards (%v, %v)", d.name, info, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good[name]) {
			t.Errorf("%s: shard bytes differ from the pristine encoding (err %v)", d.name, err)
		}
	}
}

// TestWriteShardDirCleansWhileSkipping: skipping unchanged shards does
// not skip the cleanup — a day that left the store loses its file, and
// quarantine leftovers and orphaned temp files go, while the surviving
// days keep their file instances.
func TestWriteShardDirCleansWhileSkipping(t *testing.T) {
	dir, st, entries, _ := healFixture(t, 3000)
	dropped := entries[0]
	kept := New()
	for i := 0; i < st.Len(); i++ {
		if r := st.Record(i); EpochDay(r.End) != dropped.ID {
			kept.Add(r)
		}
	}
	debris := []string{QuarantinedShardFile(dropped.ID), QuarantineFile, ".shard-3.supremm.tmp88"}
	for _, name := range debris {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirIdentity(t, dir)
	if err := WriteShardDir(dir, kept); err != nil {
		t.Fatal(err)
	}
	after := dirIdentity(t, dir)
	requireRewritten(t, "dropped day", before, after, append(debris, ShardFileName(dropped.ID), ManifestFile)...)
	for _, name := range append(debris, ShardFileName(dropped.ID)) {
		if _, ok := after[name]; ok {
			t.Errorf("%s survived WriteShardDir", name)
		}
	}
	if ss, err := LoadShardSet(dir, nil); err != nil || ss.Len() != kept.Len() {
		t.Fatalf("reload after drop: %v", err)
	}
}

// TestWriteShardDirFailedLanding: when one changed day's rename fails
// (a directory sits at its file name), WriteShardDir returns the error,
// the manifest keeps its old bytes and no temp file is left. The first
// changed day lands on the caller: when it is the one that fails,
// nothing else lands; otherwise it holds exactly its new payload, and
// each later day, landing concurrently, its old or exactly its new one.
func TestWriteShardDirFailedLanding(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, first := range []bool{true, false} {
			what := fmt.Sprintf("GOMAXPROCS=%d, first changed day fails %v", procs, first)
			dir := t.TempDir()
			if err := WriteShardDir(dir, appendBenchStore(1200, 12)); err != nil {
				t.Fatal(err)
			}
			manifest, err := os.ReadFile(filepath.Join(dir, ManifestFile))
			if err != nil {
				t.Fatal(err)
			}
			next := appendBenchStore(1300, 12) // other rows on every day
			days, cols := next.partitionByEndDay()
			k := len(days) / 2
			if first {
				k = 0
			}
			blocked := ShardFileName(days[k])
			if err := os.Remove(filepath.Join(dir, blocked)); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(dir, blocked, "in-the-way"), 0o755); err != nil {
				t.Fatal(err)
			}
			oldFiles := map[string][]byte{}
			for _, day := range days {
				oldFiles[ShardFileName(day)], _ = os.ReadFile(filepath.Join(dir, ShardFileName(day)))
			}
			if err := WriteShardDir(dir, next); err == nil {
				t.Fatalf("%s: a rename onto a directory did not fail the landing", what)
			}
			if got, _ := os.ReadFile(filepath.Join(dir, ManifestFile)); !bytes.Equal(got, manifest) {
				t.Errorf("%s: the manifest changed on a failed landing", what)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, ".*.tmp*")); len(tmps) > 0 {
				t.Errorf("%s: temp files left: %v", what, tmps)
			}
			for i, day := range days {
				if i == k {
					continue
				}
				name := ShardFileName(day)
				got, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				isNew, isOld := bytes.Equal(got, EncodeColumns(cols[i])), bytes.Equal(got, oldFiles[name])
				switch {
				case first && !isOld:
					t.Errorf("%s: %s changed after the first landing failed", what, name)
				case !first && i == 0 && !isNew:
					t.Errorf("%s: the first changed day %s does not hold its new payload", what, name)
				case !isNew && !isOld:
					t.Errorf("%s: %s holds neither its old nor its new payload", what, name)
				}
			}
		}
	}
}

// appendBenchStore is the write-path benchmark corpus: rows jobs
// ending evenly over days epoch days, grouped by end day.
func appendBenchStore(rows, days int) *Store {
	st := floorStore(rows)
	c := st.Columns()
	for i := range c.End {
		wall := c.End[i] - c.Start[i]
		c.End[i] = int64(i) * int64(days) * SecondsPerDay / int64(rows)
		c.Start[i] = c.End[i] - wall
	}
	c.recomputeDerived()
	return st
}

const benchRows, benchDays = 200_000, 120

// BenchmarkEncodeColumns is the in-memory encode of the 200k-row,
// 120-day corpus (make bench-store).
func BenchmarkEncodeColumns(b *testing.B) {
	c := appendBenchStore(benchRows, benchDays).Columns()
	total, _ := encodedLen(c)
	b.ReportAllocs()
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeColumns(c)
	}
}

// BenchmarkSaveBinary streams the same corpus into a file that is
// rewritten in place (no fsync: the encoder and the write calls, not
// the disk).
func BenchmarkSaveBinary(b *testing.B) {
	st := appendBenchStore(benchRows, benchDays)
	total, _ := encodedLen(st.Columns())
	f, err := os.Create(filepath.Join(b.TempDir(), "jobs.supremm"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ReportAllocs()
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, 0); err != nil {
			b.Fatal(err)
		}
		if err := st.SaveBinary(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteShardDirFresh lands the whole corpus into an empty
// directory per iteration: every day is written, as by the first ingest
// into a directory or the benchmark's set-up.
func BenchmarkWriteShardDirFresh(b *testing.B) {
	st := appendBenchStore(benchRows, benchDays)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteShardDir(filepath.Join(root, strconv.Itoa(i)), st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteShardDirAppend lands the corpus once, then per
// iteration appends one more day of rows and lands the grown store:
// the nightly batch against 120 days of history.
func BenchmarkWriteShardDirAppend(b *testing.B) {
	st := appendBenchStore(benchRows, benchDays)
	dir := b.TempDir()
	if err := WriteShardDir(dir, st); err != nil {
		b.Fatal(err)
	}
	perDay := benchRows / benchDays
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < perDay; k++ {
			r := st.Record(k)
			r.End = int64(benchDays+i)*SecondsPerDay + int64(k)
			r.Start = r.End - 3600
			st.Add(r)
		}
		b.StartTimer()
		if err := WriteShardDir(dir, st); err != nil {
			b.Fatal(err)
		}
	}
}
