package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// codecStore builds a store with awkward codec inputs: NaN/Inf metric
// bits, negative ints, empty strings, non-ASCII strings, repeated and
// unique dictionary values.
func codecStore(n int) *Store {
	st := New()
	for i := 0; i < n; i++ {
		r := JobRecord{
			JobID:   int64(i) - 3, // negative ids in range
			Cluster: "ranger",
			User:    []string{"alice", "böb", "", "alice"}[i%4],
			App:     "app" + string(rune('a'+i%11)),
			Science: []string{"Chem", "Phys"}[i%2],
			Nodes:   i % 100,
			Submit:  int64(i) * 1e6,
			Start:   int64(i)*1e6 + 17,
			End:     int64(i)*1e6 + 17 + int64(i%5000),
			Status:  "completed",
			Samples: i % 9,
		}
		r.FlopsGF = float64(i) * 1.25
		r.MemUsedGB = -float64(i % 7)
		if i%13 == 0 {
			r.CPUIdleFrac = math.NaN()
		}
		if i%17 == 0 {
			r.ReadMB = math.Inf(-1)
		}
		st.Add(r)
	}
	return st
}

// TestCodecRoundTrip proves encode→decode reproduces every record
// exactly (bit-level for floats, via Float64bits through the JSON-tag
// comparison below being reflect.DeepEqual on the structs).
func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 5000} {
		st := codecStore(n)
		data := EncodeColumns(st.Columns())
		got, err := DecodeColumns(data)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		st2 := FromColumns(got)
		if st2.Len() != st.Len() {
			t.Fatalf("n=%d: %d rows, want %d", n, st2.Len(), st.Len())
		}
		for i := 0; i < st.Len(); i++ {
			a, b := st.Record(i), st2.Record(i)
			if !recordsBitEqual(a, b) {
				t.Fatalf("n=%d row %d: %+v != %+v", n, i, b, a)
			}
		}
	}
}

// recordsBitEqual compares records treating NaN bit patterns as equal.
func recordsBitEqual(a, b JobRecord) bool {
	fa, fb := metricBits(a), metricBits(b)
	a = zeroMetrics(a)
	b = zeroMetrics(b)
	return a == b && fa == fb
}

func metricBits(r JobRecord) [NumMetrics]uint64 {
	var out [NumMetrics]uint64
	for k, m := range AllMetrics() {
		out[k] = math.Float64bits(r.Value(m))
	}
	return out
}

func zeroMetrics(r JobRecord) JobRecord {
	r.CPUIdleFrac, r.CPUUserFrac, r.CPUSysFrac = 0, 0, 0
	r.MemUsedGB, r.MemUsedMaxGB, r.FlopsGF = 0, 0, 0
	r.ScratchWriteMB, r.WorkWriteMB, r.ReadMB = 0, 0, 0
	r.IBTxMB, r.IBRxMB, r.LnetTxMB = 0, 0, 0
	return r
}

// TestCodecByteStable proves encode→decode→encode reproduces the exact
// bytes — the dictionary order, codes and numeric payloads are all pure
// functions of the serialized form.
func TestCodecByteStable(t *testing.T) {
	st := codecStore(4096)
	first := EncodeColumns(st.Columns())
	c, err := DecodeColumns(first)
	if err != nil {
		t.Fatal(err)
	}
	second := EncodeColumns(c)
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(first), len(second))
	}
}

// TestSaveLoadBinary round-trips the streamed writer through the decoder.
func TestSaveLoadBinary(t *testing.T) {
	st := codecStore(257)
	var buf bytes.Buffer
	if err := st.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := DecodeColumns(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st2 := FromColumns(c)
	if st2.Len() != st.Len() {
		t.Fatalf("%d rows, want %d", st2.Len(), st.Len())
	}
	for i := 0; i < st.Len(); i++ {
		if !recordsBitEqual(st.Record(i), st2.Record(i)) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestDecodeRejectsMalformed enumerates the structured corruption cases
// the decoder must reject with an error (matching the fuzz corpus
// seeds): truncations at every boundary, bad magic/version/flags,
// corrupted CRCs, reordered blocks, hostile lengths, out-of-range
// dictionary codes and trailing garbage.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid := EncodeColumns(codecStore(50).Columns())
	if _, err := DecodeColumns(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		b = f(b)
		if _, err := DecodeColumns(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}

	mutate("empty", func(b []byte) []byte { return nil })
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("future version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 99)
		return b
	})
	mutate("unknown flags", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:], 1)
		return b
	})
	mutate("row count beyond file", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 1<<40)
		return b
	})
	mutate("row count off by one", func(b []byte) []byte {
		n := binary.LittleEndian.Uint64(b[16:])
		binary.LittleEndian.PutUint64(b[16:], n+1)
		return b
	})
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("truncated mid-block", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated last byte", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad) })
	mutate("corrupted payload vs CRC", func(b []byte) []byte {
		b[headerLen+blockHeaderLen] ^= 0x01 // first byte of first payload
		return b
	})
	mutate("corrupted CRC field", func(b []byte) []byte {
		b[headerLen+12] ^= 0x01 // CRC of first block
		return b
	})
	mutate("reordered block id", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[headerLen:], 2) // the second block's id
		return b
	})
	mutate("hostile block length", func(b []byte) []byte {
		// First block claims a huge payload; must be caught against
		// remaining bytes, not allocated.
		binary.LittleEndian.PutUint64(b[headerLen+4:], 1<<50)
		return b
	})

	// Dictionary-specific damage needs the cluster block (id 2): it
	// follows the job-id block.
	dictOff := headerLen + blockHeaderLen + 50*8
	mutate("hostile dictionary count", func(b []byte) []byte {
		payloadStart := dictOff + blockHeaderLen
		binary.LittleEndian.PutUint32(b[payloadStart:], 1<<30)
		fixBlockCRC(b, dictOff)
		return b
	})
	mutate("hostile dictionary string length", func(b []byte) []byte {
		payloadStart := dictOff + blockHeaderLen
		binary.LittleEndian.PutUint32(b[payloadStart+4:], 1<<31)
		fixBlockCRC(b, dictOff)
		return b
	})
	mutate("dictionary code out of range", func(b []byte) []byte {
		// The cluster dictionary has 1 value ("ranger", 6 bytes); the
		// codes start after count+len+bytes.
		payloadStart := dictOff + blockHeaderLen
		binary.LittleEndian.PutUint32(b[payloadStart+4+4+6:], 7)
		fixBlockCRC(b, dictOff)
		return b
	})
}

// fixBlockCRC recomputes the CRC of the block at off so payload
// mutations exercise the structural checks rather than the checksum.
func fixBlockCRC(b []byte, off int) {
	length := binary.LittleEndian.Uint64(b[off+4:])
	payload := b[off+blockHeaderLen : off+blockHeaderLen+int(length)]
	binary.LittleEndian.PutUint32(b[off+12:], crc32.ChecksumIEEE(payload))
}

// TestEncodeColumnsExactSize: encodedLen is the one size formula — the
// encoder allocates its output once, at exactly the size it fills.
func TestEncodeColumnsExactSize(t *testing.T) {
	for _, n := range []int{0, 1, 10_000} {
		c := codecStore(n).Columns()
		data := EncodeColumns(c)
		total, largest := encodedLen(c)
		if len(data) != total || cap(data) != total {
			t.Errorf("n=%d: len %d cap %d, encodedLen says %d", n, len(data), cap(data), total)
		}
		if largest > total || largest < headerLen {
			t.Errorf("n=%d: largest piece %d outside [%d,%d]", n, largest, headerLen, total)
		}
	}
}

// saveBinaryBytes is SaveBinary into memory.
func saveBinaryBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.SaveBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveBinaryMatchesEncodeColumns: the streaming and the in-memory
// use of the block writer produce the same bytes, and both reproduce
// every decodable snapshot of the committed fuzz corpus (and of the
// in-code seeds) exactly — the format did not move.
func TestSaveBinaryMatchesEncodeColumns(t *testing.T) {
	for _, n := range []int{0, 1, 7, 5000} {
		st := codecStore(n)
		if !bytes.Equal(saveBinaryBytes(t, st), EncodeColumns(st.Columns())) {
			t.Errorf("n=%d: SaveBinary and EncodeColumns differ", n)
		}
	}
	seeds := fuzzSeedSnapshots()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzColumnsDecode", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value []byte corpus file", path)
		}
		seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seeds = append(seeds, []byte(seed))
	}
	decoded := 0
	for i, seed := range seeds {
		c, err := DecodeColumns(seed)
		if err != nil {
			continue
		}
		decoded++
		if !bytes.Equal(EncodeColumns(c), seed) {
			t.Errorf("seed %d: EncodeColumns does not reproduce the accepted snapshot", i)
		}
		if !bytes.Equal(saveBinaryBytes(t, FromColumns(c)), seed) {
			t.Errorf("seed %d: SaveBinary does not reproduce the accepted snapshot", i)
		}
	}
	if decoded < 4 {
		t.Fatalf("only %d of %d seeds decoded; the corpus should hold valid snapshots", decoded, len(seeds))
	}
}

// blockCounter is a walk that counts the snapshot's blocks.
type blockCounter int

func (n *blockCounter) int64s(*[]int64)     { *n++ }
func (n *blockCounter) int32s(*[]int32)     { *n++ }
func (n *blockCounter) float64s(*[]float64) { *n++ }
func (n *blockCounter) dict(*DictColumn)    { *n++ }

// failAfter accepts writes until the failAt-th (0-based), which fails.
type failAfter struct {
	failAt, calls int
	got           []byte
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls-1 == w.failAt {
		return 0, errDiskFull
	}
	w.got = append(w.got, p...)
	return len(p), nil
}

// TestSaveBinaryStopsAtFirstWriteError fails the writer at every piece
// boundary in turn (file header, then each of the 23 blocks): SaveBinary
// must return that error, must not write again after it, and what it
// wrote before must be a prefix of the snapshot.
func TestSaveBinaryStopsAtFirstWriteError(t *testing.T) {
	st := codecStore(300)
	want := EncodeColumns(st.Columns())
	var blocks blockCounter
	st.Columns().each(&blocks)
	numBlocks := int(blocks)
	for failAt := 0; failAt <= numBlocks; failAt++ {
		w := &failAfter{failAt: failAt}
		if err := st.SaveBinary(w); !errors.Is(err, errDiskFull) {
			t.Fatalf("fail at piece %d: got error %v", failAt, err)
		}
		if w.calls != failAt+1 {
			t.Errorf("fail at piece %d: %d writes, want %d (nothing after the error)", failAt, w.calls, failAt+1)
		}
		if !bytes.HasPrefix(want, w.got) {
			t.Errorf("fail at piece %d: the %d bytes written are not a snapshot prefix", failAt, len(w.got))
		}
	}
	w := &failAfter{failAt: numBlocks + 1}
	if err := st.SaveBinary(w); err != nil || !bytes.Equal(w.got, want) {
		t.Errorf("unfailed writer: err %v, %d bytes, want %d", err, len(w.got), len(want))
	}
}

// TestSaveBinaryAllocationCeiling: streaming a 100k-row store allocates
// one buffer the size of its largest block, not a second copy of the
// file (the pre-streaming SaveBinary allocated more than twice the
// file).
func TestSaveBinaryAllocationCeiling(t *testing.T) {
	st := floorStore(100_000)
	total, largest := encodedLen(st.Columns())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := st.SaveBinary(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("snapshot %d B, largest block %d B, SaveBinary allocated %d B", total, largest, alloc)
	if alloc >= 2*uint64(largest) {
		t.Errorf("SaveBinary allocated %d B, want < 2x its largest block (%d B)", alloc, largest)
	}
}

// TestLoadShardSetAllocationCeiling: a full load reads each shard into
// one buffer of the file's own size and decodes it once, so it allocates
// at most three times the shard bytes (read through io.ReadAll's
// grow-and-copy it took more than five times).
func TestLoadShardSetAllocationCeiling(t *testing.T) {
	st := floorStore(100_000)
	st.ReorderByEndDay()
	dir := t.TempDir()
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	var shardBytes uint64
	for i := 0; i < set.NumShards(); i++ {
		shardBytes += uint64(set.ShardAt(i).Info().Size)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d shards, %d B on disk, LoadShardSet allocated %d B (%.2fx)",
		set.NumShards(), shardBytes, alloc, float64(alloc)/float64(shardBytes))
	if alloc > 3*shardBytes {
		t.Errorf("LoadShardSet allocated %d B, want <= 3x the shard bytes (%d B)", alloc, shardBytes)
	}
}

// BenchmarkColumnsCodec measures raw encode/decode throughput on the
// 100k-job floor corpus (make bench-store).
func BenchmarkColumnsCodec(b *testing.B) {
	st := floorStore(100_000)
	data := EncodeColumns(st.Columns())
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			_ = EncodeColumns(st.Columns())
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeColumns(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The same rows as JSON lines, the other repair backing: the ratio to
	// "decode" is what TestColumnarDecodeSpeedupFloor holds at >= 5x.
	var jsonl bytes.Buffer
	if err := st.Save(&jsonl); err != nil {
		b.Fatal(err)
	}
	b.Run("decode-jsonl", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(jsonl.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(jsonl.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestColumnarDecodeSpeedupFloor is why shard repair reads jobs.supremm
// before jobs.jsonl: over the same 100k rows, read + DecodeColumns of
// the columnar file must be at least 5x faster than Load of the JSON
// lines. Each side is the minimum of interleaved loads, each from a
// collected heap — noise on a shared box only ever slows a load down,
// and the columnar side, the one a slow load could fail, is cheap
// enough to take three per round. The measured ratio is 30-50x.
func TestColumnarDecodeSpeedupFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-row decode comparison in -short mode")
	}
	st := floorStore(100_000)
	dir := t.TempDir()
	if err := AtomicWriteFile(dir, "jobs.supremm", func(f *os.File) error { return st.SaveBinary(f) }); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(dir, "jobs.jsonl", func(f *os.File) error { return st.Save(f) }); err != nil {
		t.Fatal(err)
	}
	timed := func(load func() (*Store, error)) time.Duration {
		t.Helper()
		runtime.GC()
		start := time.Now()
		got, err := load()
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != st.Len() {
			t.Fatalf("loaded %d rows, want %d", got.Len(), st.Len())
		}
		return took
	}
	columnar := func() (*Store, error) {
		data, err := os.ReadFile(filepath.Join(dir, "jobs.supremm"))
		if err != nil {
			return nil, err
		}
		c, err := DecodeColumns(data)
		if err != nil {
			return nil, err
		}
		return FromColumns(c), nil
	}
	jsonLines := func() (*Store, error) {
		f, err := os.Open(filepath.Join(dir, "jobs.jsonl"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Load(f)
	}
	jsonl, bin := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 2; round++ {
		jsonl = min(jsonl, timed(jsonLines))
		for k := 0; k < 3; k++ {
			bin = min(bin, timed(columnar))
		}
	}
	ratio := float64(jsonl) / float64(bin)
	t.Logf("jsonl %v, columnar %v, speedup %.1fx", jsonl, bin, ratio)
	if ratio < 5 {
		t.Errorf("columnar file only %.1fx faster to decode than JSON lines, want >= 5x", ratio)
	}
}
