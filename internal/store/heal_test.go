package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// healFixture writes a multi-day shard directory plus both monolithic
// backings (jobs.supremm, jobs.jsonl) — the full redundant layout
// cmd/ingest produces — and returns the store, the decoded manifest,
// and the pristine bytes of every shard file.
func healFixture(t *testing.T, rows int) (dir string, st *Store, entries []ShardInfo, good map[string][]byte) {
	t.Helper()
	st = multiDayStore(rows)
	dir = t.TempDir()
	if err := WriteShardDir(dir, st); err != nil {
		t.Fatal(err)
	}
	bf, err := os.Create(filepath.Join(dir, "jobs.supremm"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveBinary(bf); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
	jf, err := os.Create(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(jf); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	mdata, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	entries, err = DecodeManifest(mdata)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("fixture produced only %d shards, want >= 3", len(entries))
	}
	good = make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, ShardFileName(e.ID)))
		if err != nil {
			t.Fatal(err)
		}
		good[ShardFileName(e.ID)] = b
	}
	return dir, st, entries, good
}

// rotShard flips one byte (xor with a non-zero mask) at a seeded
// position inside a shard file.
func rotShard(t *testing.T, dir string, e ShardInfo, good []byte, rng *rand.Rand) {
	t.Helper()
	data := append([]byte(nil), good...)
	data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
	if err := os.WriteFile(filepath.Join(dir, ShardFileName(e.ID)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// verifyShard is the scrubber's check of one shard: length and CRC
// against the manifest entry, no decode.
func verifyShard(dir string, e ShardInfo) error {
	_, err := readShard(dir, e, defaultOpener)
	return err
}

// TestVerifyShardDetectsRandomRot is the detection property: a single
// byte flipped anywhere in a shard must fail verification (CRC32
// detects all single-byte errors), and pristine shards must pass.
func TestVerifyShardDetectsRandomRot(t *testing.T) {
	dir, _, entries, good := healFixture(t, 2000)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		victim := entries[rng.Intn(len(entries))]
		rotShard(t, dir, victim, good[ShardFileName(victim.ID)], rng)
		if err := verifyShard(dir, victim); err == nil {
			t.Fatalf("trial %d: rotted shard %d passed verification", trial, victim.ID)
		}
		for _, e := range entries {
			if e.ID == victim.ID {
				continue
			}
			if err := verifyShard(dir, e); err != nil {
				t.Fatalf("trial %d: pristine shard %d failed verification: %v", trial, e.ID, err)
			}
		}
		// Heal for the next trial.
		name := ShardFileName(victim.ID)
		if err := os.WriteFile(filepath.Join(dir, name), good[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadShardTellsAheadFromDamage pins the one classification of a
// file that fails its manifest entry, for the loader and the scrubber
// alike: bytes that decode as a shard of the entry's own day are a
// writer ahead of its manifest (ErrShardAhead); anything else — torn,
// rotted, another day's shard, missing — is damage.
func TestReadShardTellsAheadFromDamage(t *testing.T) {
	dir, st, entries, good := healFixture(t, 2000)
	victim, other := entries[1], entries[2]
	name := ShardFileName(victim.ID)

	// The day rewritten with one late job: what an append lands before
	// its manifest.
	late := st.Record(0)
	for i := 0; i < st.Len(); i++ {
		if r := st.Record(i); EpochDay(r.End) == victim.ID {
			late = r
			break
		}
	}
	late.JobID += 1 << 30
	grown := New()
	for i := 0; i < st.Len(); i++ {
		grown.Add(st.Record(i))
	}
	grown.Add(late)
	days, cols := grown.partitionByEndDay()
	var ahead []byte
	for i, d := range days {
		if d == victim.ID {
			ahead = EncodeColumns(cols[i])
		}
	}

	rotted := append([]byte(nil), good[name]...)
	rotted[len(rotted)/2] ^= 0x40
	cases := []struct {
		what  string
		data  []byte // nil: no file
		ahead bool
	}{
		{"a late-rows rewrite of the day", ahead, true},
		{"a torn file", good[name][:len(good[name])/3], false},
		{"a rotted file", rotted, false},
		{"another day's shard", good[ShardFileName(other.ID)], false},
		{"an empty file", []byte{}, false},
		{"no file", nil, false},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, name)
		if tc.data == nil {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := verifyShard(dir, victim)
		if err == nil {
			t.Fatalf("%s passed verification", tc.what)
		}
		if got := errors.Is(err, ErrShardAhead); got != tc.ahead {
			t.Errorf("%s: ahead = %v, want %v (%v)", tc.what, got, tc.ahead, err)
		}
		// The loader and the scrubber classify alike.
		_, faults := LoadShardsDegraded(dir, entries, nil, nil)
		findings, _ := NewScrubber(dir, entries, nil).Tick(-1)
		for who, fs := range map[string][]ShardFault{"loader": faults, "scrubber": findings} {
			if len(fs) != 1 || fs[0].Info.ID != victim.ID || errors.Is(fs[0].Err, ErrShardAhead) != tc.ahead {
				t.Errorf("%s: %s reports %+v, want day %d with ahead = %v", tc.what, who, fs, victim.ID, tc.ahead)
			}
		}
	}
}

func TestScrubberFindsRotInOneSweep(t *testing.T) {
	dir, _, entries, good := healFixture(t, 2000)
	rng := rand.New(rand.NewSource(42))
	victim := entries[rng.Intn(len(entries))]
	rotShard(t, dir, victim, good[ShardFileName(victim.ID)], rng)

	sc := NewScrubber(dir, entries, nil)
	findings, sweeps := sc.Tick(-1) // negative budget: whole set in one tick
	if sweeps != 1 {
		t.Fatalf("full-sweep tick counted %d sweeps, want 1", sweeps)
	}
	if sc.Verified() != int64(len(entries)) {
		t.Fatalf("verified %d shards, want %d", sc.Verified(), len(entries))
	}
	if len(findings) != 1 || findings[0].Info.ID != victim.ID {
		t.Fatalf("findings = %+v, want exactly shard %d", findings, victim.ID)
	}
}

// TestScrubberBudget pins the incremental sweep contract: a tick
// always verifies at least one shard, stops once the byte budget is
// spent, resumes from its cursor, and counts a sweep exactly when the
// cursor wraps — so a budget of one byte takes exactly len(entries)
// ticks per sweep.
func TestScrubberBudget(t *testing.T) {
	dir, _, entries, _ := healFixture(t, 2000)
	sc := NewScrubber(dir, entries, nil)
	for tick := 0; tick < len(entries); tick++ {
		findings, sweeps := sc.Tick(1)
		if len(findings) != 0 {
			t.Fatalf("tick %d: unexpected findings %+v", tick, findings)
		}
		wantSweeps := 0
		if tick == len(entries)-1 {
			wantSweeps = 1
		}
		if sweeps != wantSweeps {
			t.Fatalf("tick %d: %d sweeps, want %d", tick, sweeps, wantSweeps)
		}
		if sc.Verified() != int64(tick+1) {
			t.Fatalf("tick %d: verified %d, want %d", tick, sc.Verified(), tick+1)
		}
	}
}

func TestQuarantineLogRoundTrip(t *testing.T) {
	events := []QuarantineEvent{
		{Day: 3, Action: ActionQuarantine, Reason: "store: scrub shard-3.supremm: content hash 1 does not match manifest 2", At: 1700000000, Size: 4096, Hash: 0xdeadbeef},
		{Day: 3, Action: ActionRepair, Reason: "rebuilt from jobs.supremm", At: 1700000060, Size: 4096, Hash: 0xdeadbeef},
		{Day: -1, Action: ActionQuarantine, Reason: "", At: 0, Size: 0, Hash: 0},
	}
	enc := EncodeQuarantineLog(events)
	dec, err := DecodeQuarantineLog(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(dec), len(events))
	}
	for i := range events {
		if dec[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, dec[i], events[i])
		}
	}
	if re := EncodeQuarantineLog(dec); !bytes.Equal(re, enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	if _, err := DecodeQuarantineLog(EncodeQuarantineLog(nil)); err != nil {
		t.Fatalf("empty log rejected: %v", err)
	}
}

func TestQuarantineLogRejectMatrix(t *testing.T) {
	valid := EncodeQuarantineLog([]QuarantineEvent{
		{Day: 3, Action: ActionQuarantine, Reason: "r", At: 1, Size: 2, Hash: 3},
	})
	line := valid[len("SUPRMMQ1\n") : len(valid)-1] // the JSON line, sans newline
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("SUPRMMQ2\n"), valid[len("SUPRMMQ1\n"):]...),
		"unterminated":     valid[:len(valid)-1],
		"unknown action":   []byte("SUPRMMQ1\n" + strings.Replace(string(line), "quarantine", "destroy", 1) + "\n"),
		"unknown field":    []byte("SUPRMMQ1\n" + `{"day":3,"action":"quarantine","reason":"r","at":1,"size":2,"hash":3,"x":1}` + "\n"),
		"non-canonical":    []byte("SUPRMMQ1\n" + " " + string(line) + "\n"),
		"reordered keys":   []byte("SUPRMMQ1\n" + `{"action":"quarantine","day":3,"reason":"r","at":1,"size":2,"hash":3}` + "\n"),
		"negative size":    []byte("SUPRMMQ1\n" + `{"day":3,"action":"quarantine","reason":"r","at":1,"size":-2,"hash":3}` + "\n"),
		"day out of range": []byte("SUPRMMQ1\n" + fmt.Sprintf(`{"day":%d,"action":"quarantine","reason":"r","at":1,"size":2,"hash":3}`, int64(1)<<41) + "\n"),
		"trailing data":    []byte("SUPRMMQ1\n" + string(line) + " {}" + "\n"),
		"not json":         []byte("SUPRMMQ1\nhello\n"),
	}
	for name, data := range cases {
		if _, err := DecodeQuarantineLog(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := DecodeQuarantineLog(valid); err != nil {
		t.Fatalf("pristine log rejected: %v", err)
	}
}

func TestQuarantineShardLifecycle(t *testing.T) {
	dir, _, entries, good := healFixture(t, 2500)
	e := entries[1]
	name := ShardFileName(e.ID)
	if moved, err := QuarantineShard(dir, e, "test damage", 1700000000); err != nil || !moved {
		t.Fatalf("quarantine: moved %v, err %v", moved, err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("shard file still present after quarantine: %v", err)
	}
	aside, err := os.ReadFile(filepath.Join(dir, QuarantinedShardFile(e.ID)))
	if err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if !bytes.Equal(aside, good[name]) {
		t.Fatal("quarantine altered the shard bytes (evidence destroyed)")
	}
	if !isQuarantined(dir, e.ID) {
		t.Fatal("IsQuarantined = false after quarantine")
	}
	events, err := LoadQuarantineLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("quarantine log holds %d events, want 1", len(events))
	}
	want := QuarantineEvent{Day: e.ID, Action: ActionQuarantine, Reason: "test damage",
		At: 1700000000, Size: e.Size, Hash: e.Hash}
	if events[0] != want {
		t.Fatalf("logged %+v, want %+v", events[0], want)
	}
	// A day already aside is left there: nothing moves, nothing is logged,
	// even when a damaged file has appeared under the shard's name since.
	if err := os.WriteFile(filepath.Join(dir, name), good[name][:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if moved, err := QuarantineShard(dir, e, "found again", 1700000001); err != nil || moved {
		t.Fatalf("second quarantine of the same day: moved %v, err %v", moved, err)
	}
	if aside, err = os.ReadFile(filepath.Join(dir, QuarantinedShardFile(e.ID))); err != nil || !bytes.Equal(aside, good[name]) {
		t.Fatalf("second quarantine replaced the evidence (err %v)", err)
	}
	if events, err = LoadQuarantineLog(dir); err != nil || len(events) != 1 {
		t.Fatalf("second quarantine logged: %d events (err %v), want 1", len(events), err)
	}
}

// TestRepairRestoresBytesExactly is the repair property: whatever byte
// rot hit a shard, rebuilding it from either monolithic backing yields
// bytes identical to the originals — proven against the manifest hash,
// then against the pristine bytes themselves.
func TestRepairRestoresBytesExactly(t *testing.T) {
	dir, _, entries, good := healFixture(t, 2500)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		victim := entries[rng.Intn(len(entries))]
		name := ShardFileName(victim.ID)
		rotShard(t, dir, victim, good[name], rng)
		if moved, err := QuarantineShard(dir, victim, "trial rot", int64(trial)); err != nil || !moved {
			t.Fatalf("quarantine: moved %v, err %v", moved, err)
		}
		if trial%2 == 1 {
			// Odd trials repair from the jsonl fallback.
			if err := os.Remove(filepath.Join(dir, "jobs.supremm")); err != nil {
				t.Fatal(err)
			}
		}
		backing, src, err := LoadBackingStore(dir, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantSrc := "jobs.supremm"
		if trial%2 == 1 {
			wantSrc = "jobs.jsonl"
		}
		if src != wantSrc {
			t.Fatalf("trial %d: repaired from %q, want %q", trial, src, wantSrc)
		}
		if err := RepairShard(dir, victim, backing); err != nil {
			t.Fatalf("trial %d: repair: %v", trial, err)
		}
		repaired, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, good[name]) {
			t.Fatalf("trial %d: repaired shard %d differs from pristine bytes", trial, victim.ID)
		}
		if crc32.ChecksumIEEE(repaired) != victim.Hash {
			t.Fatalf("trial %d: repaired hash does not match manifest", trial)
		}
		if isQuarantined(dir, victim.ID) {
			t.Fatalf("trial %d: quarantined copy survived repair", trial)
		}
		if trial%2 == 1 {
			// Put the binary backing back for the next trial.
			if err := os.WriteFile(filepath.Join(dir, "jobs.supremm"), EncodeColumns(backing.Columns()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRepairNeedsNoGlobalOrder: shard bytes and their repair depend on
// each day's rows in their relative order, not on the backing being
// grouped by day — WriteShardDir and RepairShard both pick a day's rows
// out in the order they find them. (ReorderByEndDay is for the exports'
// row order.)
func TestRepairNeedsNoGlobalOrder(t *testing.T) {
	ungrouped := floorStore(2500)
	days, _ := ungrouped.c.rowsByEndDay()
	interleaved := false
	for i := 1; i < ungrouped.Len(); i++ {
		if EpochDay(ungrouped.c.End[i]) < EpochDay(ungrouped.c.End[i-1]) {
			interleaved = true
		}
	}
	if !interleaved || len(days) < 3 {
		t.Fatalf("fixture: %d days, interleaved %v; want several days out of order", len(days), interleaved)
	}
	dir, _, entries, good := healFixture(t, 2500) // written from the grouped store
	plain := t.TempDir()
	if err := WriteShardDir(plain, ungrouped); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := ShardFileName(e.ID)
		got, err := os.ReadFile(filepath.Join(plain, name))
		if err != nil || !bytes.Equal(got, good[name]) {
			t.Fatalf("%s written from the ungrouped store differs from the grouped one (err %v)", name, err)
		}
		if moved, err := QuarantineShard(dir, e, "drill", 0); err != nil || !moved {
			t.Fatalf("quarantine %s: moved %v, err %v", name, moved, err)
		}
		if err := RepairShard(dir, e, ungrouped); err != nil {
			t.Fatalf("repair %s from the ungrouped backing: %v", name, err)
		}
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, good[name]) {
			t.Fatalf("%s repaired from the ungrouped backing differs from the pristine bytes (err %v)", name, err)
		}
	}
}

func TestRepairRefusesWrongBacking(t *testing.T) {
	dir, _, entries, good := healFixture(t, 2500)
	victim := entries[0]
	name := ShardFileName(victim.ID)
	if moved, err := QuarantineShard(dir, victim, "rot", 0); err != nil || !moved {
		t.Fatalf("quarantine: moved %v, err %v", moved, err)
	}
	// A backing missing the victim day cannot repair: row count check.
	partial := New()
	full, _, err := LoadBackingStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < full.Len(); i++ {
		if r := full.Record(i); EpochDay(r.End) != victim.ID {
			partial.Add(r)
		}
	}
	if err := RepairShard(dir, victim, partial); err == nil {
		t.Fatal("repair accepted a backing missing the victim day")
	}
	if _, statErr := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(statErr) {
		t.Fatal("failed repair landed a shard file anyway")
	}
	if !isQuarantined(dir, victim.ID) {
		t.Fatal("failed repair removed the quarantined copy")
	}
	// The true backing still repairs.
	if err := RepairShard(dir, victim, full); err != nil {
		t.Fatal(err)
	}
	repaired, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, good[name]) {
		t.Fatal("repair after refusal is not byte-identical")
	}
}

// TestDegradedAggregatesMatchBaseline is the isolation property:
// quarantining day N must leave every aggregate over days != N
// bit-identical to the same query against the full store — degraded
// serving never perturbs the healthy days.
func TestDegradedAggregatesMatchBaseline(t *testing.T) {
	dir, _, entries, _ := healFixture(t, 2500)
	full, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	metrics := []Metric{MetricCPUUser, MetricMemUsed, MetricFlops}
	for trial := 0; trial < len(entries); trial++ {
		victim := entries[trial]
		if moved, err := QuarantineShard(dir, victim, "trial", int64(trial)); err != nil || !moved {
			t.Fatalf("quarantine: moved %v, err %v", moved, err)
		}
		degraded, faults := LoadShardsDegraded(dir, entries, nil, nil)
		if len(faults) != 1 || faults[0].Info.ID != victim.ID {
			t.Fatalf("trial %d: faults = %+v, want exactly day %d", trial, faults, victim.ID)
		}
		if degraded.NumShards() != len(entries)-1 {
			t.Fatalf("trial %d: degraded set has %d shards, want %d", trial, degraded.NumShards(), len(entries)-1)
		}
		// Windows that exclude the quarantined day: everything before it
		// (a bound of 0 means unbounded, so day 0 has no "before"),
		// everything after it, and a random healthy single day.
		windows := []Filter{
			{EndAfter: (victim.ID + 1) * SecondsPerDay},
		}
		if victim.ID > 0 {
			windows = append(windows, Filter{EndBefore: victim.ID * SecondsPerDay})
		}
		if healthy := pickOtherDay(rng, entries, victim.ID); healthy >= 0 {
			windows = append(windows, Filter{
				EndAfter:  healthy * SecondsPerDay,
				EndBefore: (healthy + 1) * SecondsPerDay,
			})
		}
		for wi, f := range windows {
			m := metrics[rng.Intn(len(metrics))]
			a, b := full.Aggregate(m, f), degraded.Aggregate(m, f)
			if !aggBitsEqual(b, a) {
				t.Fatalf("trial %d window %d: degraded aggregate %+v != baseline %+v", trial, wi, b, a)
			}
			ga := full.GroupBy(ByUser, metrics, f)
			gb := degraded.GroupBy(ByUser, metrics, f)
			if !groupsBitsEqual(ga, gb) {
				t.Fatalf("trial %d window %d: degraded groupby differs from baseline", trial, wi)
			}
		}
		// Restore: move the quarantined copy back for the next trial.
		if err := os.Rename(filepath.Join(dir, QuarantinedShardFile(victim.ID)),
			filepath.Join(dir, ShardFileName(victim.ID))); err != nil {
			t.Fatal(err)
		}
	}
}

func pickOtherDay(rng *rand.Rand, entries []ShardInfo, not int64) int64 {
	others := make([]int64, 0, len(entries))
	for _, e := range entries {
		if e.ID != not {
			others = append(others, e.ID)
		}
	}
	if len(others) == 0 {
		return -1
	}
	return others[rng.Intn(len(others))]
}

// TestLoadShardsDegradedReuse pins that fault isolation composes with
// incremental reuse: against a previous healthy set, a degraded load
// adopts every healthy shard by pointer and faults only the damaged
// one.
func TestLoadShardsDegradedReuse(t *testing.T) {
	dir, _, entries, _ := healFixture(t, 2000)
	prev, err := LoadShardSet(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := entries[len(entries)/2]
	if err := os.Remove(filepath.Join(dir, ShardFileName(victim.ID))); err != nil {
		t.Fatal(err)
	}
	set, faults := LoadShardsDegraded(dir, entries, prev, nil)
	if len(faults) != 1 || faults[0].Info.ID != victim.ID {
		t.Fatalf("faults = %+v, want exactly day %d", faults, victim.ID)
	}
	stats := set.LoadStats()
	if stats.Reused != len(entries)-1 {
		t.Fatalf("reused %d shards, want %d", stats.Reused, len(entries)-1)
	}
	if stats.Loaded != 0 {
		t.Fatalf("loaded %d shards, want 0", stats.Loaded)
	}
	for i := 0; i < set.NumShards(); i++ {
		sh := set.ShardAt(i)
		if prevSh := prev.shardByID(sh.ID()); prevSh != sh {
			t.Fatalf("shard %d was copied, not adopted by pointer", sh.ID())
		}
	}
}
