package store

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeedSnapshots builds the in-code seed inputs: a valid snapshot
// plus the structured corruption classes (truncated blocks, corrupted
// CRC, hostile lengths). The committed corpus under
// testdata/fuzz/FuzzColumnsDecode holds the same classes so `go test`
// replays them even without -fuzz.
func fuzzSeedSnapshots() [][]byte {
	valid := EncodeColumns(codecStore(20).Columns())
	seeds := [][]byte{
		valid,
		EncodeColumns(New().Columns()), // zero rows
		valid[:len(valid)/3],           // truncated mid-block
		valid[:headerLen],              // header only
		{},
	}
	crc := append([]byte(nil), valid...)
	crc[headerLen+12] ^= 0xff // first block's CRC field
	seeds = append(seeds, crc)

	hostile := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hostile[16:], 1<<60) // absurd row count
	seeds = append(seeds, hostile)

	hostileBlock := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(hostileBlock[headerLen+4:], 1<<50) // absurd block length
	seeds = append(seeds, hostileBlock)
	return seeds
}

// FuzzColumnsDecode hammers the binary snapshot decoder with arbitrary
// bytes: it must either return an error or produce a store whose
// re-encoding is byte-identical to a re-decode (self-consistency); it
// must never panic, and the decoder's bounds checks keep allocations
// within a small multiple of the input size (a hostile length that
// over-allocated would OOM the fuzz engine).
func FuzzColumnsDecode(f *testing.F) {
	for _, seed := range fuzzSeedSnapshots() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeColumns(data)
		if err != nil {
			return
		}
		// Accepted input: the decode must be internally consistent —
		// re-encoding yields a canonical snapshot that decodes to the
		// same bytes again (idempotent canonical form).
		enc := EncodeColumns(c)
		c2, err := DecodeColumns(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeColumns(c2)) {
			t.Fatal("encode→decode→encode not byte-stable")
		}
		// The decoded store must be queryable without panics: the code
		// arrays were validated against the dictionaries.
		st := FromColumns(c)
		_ = NewShardSet([]*Columns{c}).Aggregate(MetricFlops, Filter{})
		if st.Len() > 0 {
			_ = st.Record(0)
			_ = st.Record(st.Len() - 1)
		}
	})
}

// fuzzSeedManifests builds the manifest seed inputs: valid one- and
// multi-entry manifests plus each structured corruption class the
// decoder must reject (truncation, hostile counts, duplicate shard IDs,
// overlapping/out-of-day time ranges, resealed header damage). The
// committed corpus under testdata/fuzz/FuzzManifestDecode holds the
// same classes so `go test` replays them even without -fuzz.
func fuzzSeedManifests() [][]byte {
	valid := EncodeManifest(manifestFixture())
	one := EncodeManifest(manifestFixture()[:1])
	empty := EncodeManifest(nil)
	seeds := [][]byte{valid, one, empty, {}, valid[:headerLen], valid[:len(valid)-5]}

	crc := append([]byte(nil), valid...)
	crc[len(crc)/2] ^= 0xff
	seeds = append(seeds, crc)

	body := valid[:len(valid)-4]
	hostileCount := append([]byte(nil), body...)
	binary.LittleEndian.PutUint64(hostileCount[16:], 1<<60)
	seeds = append(seeds, reseal(hostileCount))

	day := int64(7)
	lo := day * SecondsPerDay
	seeds = append(seeds,
		// duplicate shard IDs
		EncodeManifest([]ShardInfo{
			{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 1},
			{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo, Size: 64, Hash: 2},
		}),
		// time range spilling past its day (the overlap shape)
		EncodeManifest([]ShardInfo{{ID: day, Rows: 1, MinEnd: lo, MaxEnd: lo + SecondsPerDay, Size: 64, Hash: 1}}),
		// trailing garbage after the entry region
		reseal(append(append([]byte(nil), body...), 1, 2, 3, 4)),
	)
	return seeds
}

// FuzzManifestDecode hammers the shard-manifest decoder with arbitrary
// bytes: it must either reject with an error or accept — and every
// accepted input must re-encode byte-identically (the manifest format
// is a bijection on its valid set), with entries that honor the
// decoder's own invariants. It must never panic and never over-allocate
// from a hostile count.
func FuzzManifestDecode(f *testing.F) {
	for _, seed := range fuzzSeedManifests() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeManifest(data)
		if err != nil {
			return
		}
		if re := EncodeManifest(entries); !bytes.Equal(re, data) {
			t.Fatalf("accepted manifest does not re-encode to itself (%d entries)", len(entries))
		}
		for i, e := range entries {
			if e.Rows < 1 {
				t.Fatalf("entry %d: accepted zero rows", i)
			}
			if i > 0 && e.ID <= entries[i-1].ID {
				t.Fatalf("entry %d: accepted non-ascending id %d after %d", i, e.ID, entries[i-1].ID)
			}
			if EpochDay(e.MinEnd) != e.ID || EpochDay(e.MaxEnd) != e.ID || e.MinEnd > e.MaxEnd {
				t.Fatalf("entry %d: accepted time range [%d,%d] outside day %d", i, e.MinEnd, e.MaxEnd, e.ID)
			}
		}
	})
}

func fuzzSeedQuarantineLogs() [][]byte {
	pair := EncodeQuarantineLog([]QuarantineEvent{
		{Day: 3, Action: ActionQuarantine, Reason: "store: scrub shard-3.supremm: content hash 00000001 does not match manifest 00000002", At: 1700000000, Size: 4096, Hash: 0xdeadbeef},
		{Day: 3, Action: ActionRepair, Reason: "rebuilt from jobs.supremm", At: 1700000060, Size: 4096, Hash: 0xdeadbeef},
	})
	empty := EncodeQuarantineLog(nil)
	one := EncodeQuarantineLog([]QuarantineEvent{{Day: -7, Action: ActionQuarantine}})
	seeds := [][]byte{pair, empty, one, {}, pair[:len(pair)-1], pair[:9]}

	flipped := append([]byte(nil), pair...)
	flipped[len(flipped)/2] ^= 0xff
	seeds = append(seeds,
		flipped,
		// hostile shapes the decoder must reject without panicking
		[]byte("SUPRMMQ1\n{\"day\":1,\"action\":\"destroy\",\"reason\":\"\",\"at\":0,\"size\":0,\"hash\":0}\n"),
		[]byte("SUPRMMQ1\n {\"day\":1}\n"),
		[]byte("SUPRMMQ1\nnull\n"),
		[]byte("SUPRMMQ2\n"),
	)
	return seeds
}

// FuzzQuarantineRecord hammers the quarantine-log decoder with
// arbitrary bytes: reject with an error or accept, and every accepted
// log must re-encode byte-identically (the canonical-line check makes
// the format a bijection on its valid set) with events honoring the
// decoder's own invariants. Never panic, never over-allocate from a
// hostile line count.
func FuzzQuarantineRecord(f *testing.F) {
	for _, seed := range fuzzSeedQuarantineLogs() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeQuarantineLog(data)
		if err != nil {
			return
		}
		if re := EncodeQuarantineLog(events); !bytes.Equal(re, data) {
			t.Fatalf("accepted quarantine log does not re-encode to itself (%d events)", len(events))
		}
		for i, ev := range events {
			if ev.Action != ActionQuarantine && ev.Action != ActionRepair {
				t.Fatalf("event %d: accepted unknown action %q", i, ev.Action)
			}
			if ev.Day < -manifestMaxID || ev.Day > manifestMaxID {
				t.Fatalf("event %d: accepted out-of-range day %d", i, ev.Day)
			}
			if ev.Size < 0 {
				t.Fatalf("event %d: accepted negative size %d", i, ev.Size)
			}
		}
	})
}
