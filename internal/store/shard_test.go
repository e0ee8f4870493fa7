package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEpochDayFloors(t *testing.T) {
	cases := []struct{ ts, day int64 }{
		{0, 0}, {1, 0}, {86399, 0}, {86400, 1}, {86401, 1},
		{2 * 86400, 2}, {-1, -1}, {-86399, -1}, {-86400, -1}, {-86401, -2},
	}
	for _, c := range cases {
		if got := EpochDay(c.ts); got != c.day {
			t.Errorf("EpochDay(%d) = %d, want %d", c.ts, got, c.day)
		}
	}
}

func manifestFixture() []ShardInfo {
	return []ShardInfo{
		{ID: -3, Rows: 5, MinEnd: -3 * SecondsPerDay, MaxEnd: -3*SecondsPerDay + 10, Size: 400, Hash: 0xdeadbeef},
		{ID: 0, Rows: 1, MinEnd: 0, MaxEnd: SecondsPerDay - 1, Size: 64, Hash: 1},
		{ID: 19500, Rows: 1000, MinEnd: 19500*SecondsPerDay + 5, MaxEnd: 19500*SecondsPerDay + 86000, Size: 1 << 20, Hash: 42},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	for _, entries := range [][]ShardInfo{nil, manifestFixture()} {
		enc := EncodeManifest(entries)
		dec, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("decode(%d entries): %v", len(entries), err)
		}
		if len(dec) != len(entries) {
			t.Fatalf("decoded %d entries, want %d", len(dec), len(entries))
		}
		for i := range dec {
			if dec[i] != entries[i] {
				t.Errorf("entry %d: %+v != %+v", i, dec[i], entries[i])
			}
		}
		// The bijectivity half the fuzzer leans on: accepted bytes
		// re-encode identically.
		if re := EncodeManifest(dec); string(re) != string(enc) {
			t.Error("encode(decode(m)) differs from m")
		}
	}
}

// reseal recomputes the trailing CRC after a deliberate corruption of
// the body, so the test reaches the validation behind the checksum.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestManifestRejectMatrix(t *testing.T) {
	valid := EncodeManifest(manifestFixture())
	body := append([]byte(nil), valid[:len(valid)-4]...)
	patched := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), body...)
		mutate(b)
		return reseal(b)
	}
	day := int64(7)
	lo := day * SecondsPerDay
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"shorter than header", valid[:manifestHeaderLen]},
		{"truncated tail", valid[:len(valid)-5]},
		{"flipped byte (checksum)", patchedByteFlip(valid, len(valid)/2)},
		{"bad magic", patched(func(b []byte) { b[0] ^= 0xff })},
		{"bad version", patched(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 99) })},
		{"nonzero flags", patched(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1) })},
		{"hostile count", patched(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<60) })},
		{"count off by one", patched(func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 4) })},
		{"trailing bytes", reseal(append(append([]byte(nil), body...), 0, 0, 0, 0))},
		{"zero rows", EncodeManifest([]ShardInfo{{ID: day, Rows: 0, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 1}})},
		{"id out of range", EncodeManifest([]ShardInfo{{ID: 1 << 41, Rows: 1, MinEnd: (1 << 41) * SecondsPerDay, MaxEnd: (1 << 41) * SecondsPerDay, Size: 64, Hash: 1}})},
		{"rows beyond size", EncodeManifest([]ShardInfo{{ID: day, Rows: 64, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 1}})},
		{"duplicate ids", EncodeManifest([]ShardInfo{
			{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 1},
			{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 1},
		})},
		{"descending ids", EncodeManifest([]ShardInfo{
			{ID: day + 1, Rows: 1, MinEnd: lo + SecondsPerDay, MaxEnd: lo + SecondsPerDay, Size: 64, Hash: 1},
			{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 1},
		})},
		{"minEnd before its day", EncodeManifest([]ShardInfo{{ID: day, Rows: 1, MinEnd: lo - 1, MaxEnd: lo, Size: 64, Hash: 1}})},
		{"maxEnd past its day", EncodeManifest([]ShardInfo{{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo + SecondsPerDay, Size: 64, Hash: 1}})},
		{"minEnd above maxEnd", EncodeManifest([]ShardInfo{{ID: day, Rows: 1, MinEnd: lo + 10, MaxEnd: lo + 5, Size: 64, Hash: 1}})},
	}
	for _, c := range cases {
		if _, err := DecodeManifest(c.data); err == nil {
			t.Errorf("%s: decode accepted corrupt manifest", c.name)
		}
	}
	// The matrix used real corruptions: the pristine bytes still decode.
	if _, err := DecodeManifest(valid); err != nil {
		t.Fatalf("pristine manifest rejected: %v", err)
	}
}

func patchedByteFlip(data []byte, i int) []byte {
	b := append([]byte(nil), data...)
	b[i] ^= 0xff
	return b
}

// floorStore mirrors the serve benchmark's 100k-job corpus shape (one
// cluster, 500 users, six apps).
func floorStore(n int) *Store {
	st := New()
	apps := []string{"namd", "amber", "gromacs", "wrf", "hpl", "charmm"}
	users := make([]string, 500)
	for u := range users {
		users[u] = "u" + string(rune('0'+u/100)) + string(rune('0'+u/10%10)) + string(rune('0'+u%10))
	}
	for i := 0; i < n; i++ {
		r := JobRecord{
			JobID:   int64(100 + i),
			Cluster: "ranger",
			User:    users[i%len(users)],
			App:     apps[i%len(apps)],
			Science: []string{"Chemistry", "Physics", "Biology"}[i%3],
			Nodes:   1 + i%64,
			Submit:  int64(100 * i),
			Start:   int64(100*i + 60),
			End:     int64(100*i+60) + 1800*(1+int64(i%8)),
			Status:  "completed",
			Samples: 1 + i%5,
		}
		r.CPUIdleFrac = float64(i%100) / 100
		r.MemUsedGB = float64(i % 29)
		r.FlopsGF = 0.7 * float64(i%17)
		st.Add(r)
	}
	return st
}

// multiDayStore is floorStore grouped by end day — the shape every
// shard test wants: a few thousand rows spanning several epoch days.
func multiDayStore(n int) *Store {
	st := floorStore(n)
	st.ReorderByEndDay()
	return st
}

func TestWriteShardDirRoundTrip(t *testing.T) {
	st := multiDayStore(3000)
	dir := t.TempDir()
	// A shard from a "previous batch" whose day is gone must be cleaned
	// up once the new manifest lands.
	stale := filepath.Join(dir, "shard-999999.supremm")
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale shard from a previous batch survived WriteShardDir")
	}

	ss, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Len() != st.Len() {
		t.Fatalf("shard set has %d rows, store has %d", ss.Len(), st.Len())
	}
	for i, got := range ss.Scan(Filter{}).Records() {
		if got != st.Record(i) {
			t.Fatalf("row %d: shard %+v != store %+v", i, got, st.Record(i))
		}
	}
	if stats := ss.LoadStats(); stats.Loaded != ss.NumShards() || stats.Reused != 0 {
		t.Errorf("cold load stats %+v, want all %d loaded", stats, ss.NumShards())
	}
	if ss.NumShards() < 2 {
		t.Fatalf("fixture spans %d shards, want >= 2 for a meaningful round trip", ss.NumShards())
	}
	// Every shard holds exactly its own day, ascending.
	for i := 0; i < ss.NumShards(); i++ {
		sh := ss.ShardAt(i)
		if i > 0 && sh.ID() <= ss.ShardAt(i-1).ID() {
			t.Fatalf("shard ids not ascending at %d", i)
		}
		info := sh.Info()
		if EpochDay(info.MinEnd) != sh.ID() || EpochDay(info.MaxEnd) != sh.ID() {
			t.Errorf("shard %d holds ends outside its day: [%d,%d]", sh.ID(), info.MinEnd, info.MaxEnd)
		}
	}
	// The atomic writer left no work files behind.
	glob, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range glob {
		if strings.HasPrefix(de.Name(), ".") {
			t.Errorf("temp file %s survived the atomic writes", de.Name())
		}
	}
}

func TestWriteShardDirDeterministic(t *testing.T) {
	st := multiDayStore(1500)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := WriteShardDir(dirA, st); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardDir(dirB, st); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dirA, "shard-*.supremm"))
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, filepath.Join(dirA, ManifestFile))
	for _, p := range names {
		a, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, filepath.Base(p)))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: two writes of the same store differ", filepath.Base(p))
		}
	}
}

func TestLoadShardSetReuse(t *testing.T) {
	st := multiDayStore(3000)
	dir := t.TempDir()
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	ss1, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Rewriting the unchanged store produces byte-identical shards; a
	// reload against the previous generation decodes nothing.
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	ss2, err := LoadShardSet(dir, ss1)
	if err != nil {
		t.Fatal(err)
	}
	if stats := ss2.LoadStats(); stats.Reused != ss1.NumShards() || stats.Loaded != 0 {
		t.Fatalf("unchanged reload stats %+v, want all %d reused", stats, ss1.NumShards())
	}
	for i := 0; i < ss2.NumShards(); i++ {
		if ss2.ShardAt(i) != ss1.ShardAt(i) {
			t.Fatalf("shard %d not adopted by pointer on unchanged reload", i)
		}
	}

	// Append one new day: only that shard is decoded, history is shared.
	st2 := New()
	for i := 0; i < st.Len(); i++ {
		st2.Add(st.Record(i))
	}
	newDay := ss1.ShardAt(ss1.NumShards()-1).ID() + 2
	for j := 0; j < 40; j++ {
		r := st.Record(j)
		r.JobID = int64(900000 + j)
		r.End = newDay*SecondsPerDay + int64(100*j+50)
		r.Start = r.End - 3600
		st2.Add(r)
	}
	st2.ReorderByEndDay()
	if err := WriteShardDir(dir, st2); err != nil {
		t.Fatal(err)
	}
	ss3, err := LoadShardSet(dir, ss2)
	if err != nil {
		t.Fatal(err)
	}
	if stats := ss3.LoadStats(); stats.Reused != ss1.NumShards() || stats.Loaded != 1 {
		t.Fatalf("one-day append stats %+v, want %d reused / 1 loaded", stats, ss1.NumShards())
	}
	for i := 0; i < ss1.NumShards(); i++ {
		old, now := ss2.ShardAt(i), ss3.ShardAt(i)
		if old != now {
			t.Fatalf("unchanged shard %d re-decoded on append", old.ID())
		}
		// Pointer-shared columns, not copies: the same backing arrays.
		if &old.Columns().JobID[0] != &now.Columns().JobID[0] {
			t.Fatalf("shard %d columns copied instead of shared", old.ID())
		}
	}
	if ss3.Len() != st2.Len() {
		t.Fatalf("after append shard set has %d rows, store has %d", ss3.Len(), st2.Len())
	}
	for i, got := range ss3.Scan(Filter{}).Records() {
		if got != st2.Record(i) {
			t.Fatalf("row %d diverges after incremental reload", i)
		}
	}
}

func TestLoadShardSetTornShard(t *testing.T) {
	st := multiDayStore(2000)
	dir := t.TempDir()
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	ss1, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, ShardFileName(ss1.ShardAt(0).ID()))
	good, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}

	// Torn to a strict prefix: the size check fires even when the
	// previous generation holds the healthy shard in memory.
	if err := os.WriteFile(victim, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardSet(dir, ss1); err == nil {
		t.Error("torn shard loaded despite healthy in-memory copy")
	}
	if _, err := LoadShardSet(dir, nil); err == nil {
		t.Error("torn shard loaded cold")
	}

	// Same size, different content: the manifest hash catches it cold.
	swapped := append([]byte(nil), good...)
	swapped[len(swapped)/2] ^= 0xff
	if err := os.WriteFile(victim, swapped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardSet(dir, nil); err == nil {
		t.Error("hash-mismatched shard loaded cold")
	}

	// Shard deleted while the manifest still lists it.
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardSet(dir, ss1); err == nil {
		t.Error("stale manifest (missing shard) loaded despite in-memory copy")
	}
}
