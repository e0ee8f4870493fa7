package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"supremm/internal/store"
)

// layoutRows are three rows whose every column differs from every other
// of its width, so a block written in another's place changes the bytes.
var layoutRows = []store.JobRecord{
	{JobID: 101, Cluster: "ranger", User: "alice", App: "namd", Science: "Physics", Nodes: 4,
		Submit: 1000, Start: 2000, End: 9200, Status: "COMPLETED", Samples: 12,
		CPUIdleFrac: 0.11, CPUUserFrac: 0.82, CPUSysFrac: 0.07, MemUsedGB: 10.5, MemUsedMaxGB: 14.25,
		FlopsGF: 3.5, ScratchWriteMB: 1.25, WorkWriteMB: 0.5, ReadMB: 2.75, IBTxMB: 30.5, IBRxMB: 31.5, LnetTxMB: 4.5},
	{JobID: 102, Cluster: "lonestar4", User: "bob", App: "wrf", Science: "Atmospheric Sciences", Nodes: 16,
		Submit: 1100, Start: 2600, End: 6200, Status: "FAILED", Samples: 6,
		CPUIdleFrac: 0.21, CPUUserFrac: 0.72, CPUSysFrac: 0.06, MemUsedGB: 20.5, MemUsedMaxGB: 24.25,
		FlopsGF: 7.5, ScratchWriteMB: 2.25, WorkWriteMB: 1.5, ReadMB: 3.75, IBTxMB: 40.5, IBRxMB: 41.5, LnetTxMB: 5.5},
	{JobID: 103, Cluster: "ranger", User: "carol", App: "namd", Science: "Physics", Nodes: 1,
		Submit: 1200, Start: 2300, End: 2900, Status: "COMPLETED", Samples: 1,
		CPUIdleFrac: 0.31, CPUUserFrac: 0.62, CPUSysFrac: 0.05, MemUsedGB: 30.5, MemUsedMaxGB: 34.25,
		FlopsGF: 9.5, ScratchWriteMB: 3.25, WorkWriteMB: 2.5, ReadMB: 4.75, IBTxMB: 50.5, IBRxMB: 51.5, LnetTxMB: 6.5},
}

// layoutBytes builds the v1 snapshot of rows by hand from the format as
// the codec's doc comment and DESIGN.md §11 state it, with
// encoding/binary and crc32 alone: the 24-byte header, then 23 blocks
// (u32 id | u64 payload length | u32 CRC32-IEEE of the payload |
// payload) with ids 1..23 in this order — job id; the cluster, user,
// app, science and status dictionaries; nodes, submit, start, end,
// samples; the twelve metrics.
func layoutBytes(t *testing.T, rows []store.JobRecord) []byte {
	t.Helper()
	le := binary.LittleEndian
	out := []byte("SUPRMMC1")
	out = le.AppendUint32(out, 1) // version
	out = le.AppendUint32(out, 0) // flags
	out = le.AppendUint64(out, uint64(len(rows)))
	id := uint32(0)
	block := func(payload []byte) {
		id++
		out = le.AppendUint32(out, id)
		out = le.AppendUint64(out, uint64(len(payload)))
		out = le.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
	}
	int64s := func(field func(r store.JobRecord) int64) {
		var p []byte
		for _, r := range rows {
			p = le.AppendUint64(p, uint64(field(r)))
		}
		block(p)
	}
	int32s := func(field func(r store.JobRecord) int) {
		var p []byte
		for _, r := range rows {
			p = le.AppendUint32(p, uint32(field(r)))
		}
		block(p)
	}
	// A dictionary lists each value once, in first-appearance order,
	// then one code per row.
	dict := func(field func(r store.JobRecord) string) {
		var values []string
		var codes []uint32
		for _, r := range rows {
			code := len(values)
			for k, v := range values {
				if v == field(r) {
					code = k
				}
			}
			if code == len(values) {
				values = append(values, field(r))
			}
			codes = append(codes, uint32(code))
		}
		p := le.AppendUint32(nil, uint32(len(values)))
		for _, v := range values {
			p = le.AppendUint32(p, uint32(len(v)))
			p = append(p, v...)
		}
		for _, c := range codes {
			p = le.AppendUint32(p, c)
		}
		block(p)
	}
	float64s := func(field func(r store.JobRecord) float64) {
		var p []byte
		for _, r := range rows {
			p = le.AppendUint64(p, math.Float64bits(field(r)))
		}
		block(p)
	}

	int64s(func(r store.JobRecord) int64 { return r.JobID })
	dict(func(r store.JobRecord) string { return r.Cluster })
	dict(func(r store.JobRecord) string { return r.User })
	dict(func(r store.JobRecord) string { return r.App })
	dict(func(r store.JobRecord) string { return r.Science })
	dict(func(r store.JobRecord) string { return r.Status })
	int32s(func(r store.JobRecord) int { return r.Nodes })
	int64s(func(r store.JobRecord) int64 { return r.Submit })
	int64s(func(r store.JobRecord) int64 { return r.Start })
	int64s(func(r store.JobRecord) int64 { return r.End })
	int32s(func(r store.JobRecord) int { return r.Samples })
	for _, metric := range []func(r store.JobRecord) float64{
		func(r store.JobRecord) float64 { return r.CPUIdleFrac },
		func(r store.JobRecord) float64 { return r.CPUUserFrac },
		func(r store.JobRecord) float64 { return r.CPUSysFrac },
		func(r store.JobRecord) float64 { return r.MemUsedGB },
		func(r store.JobRecord) float64 { return r.MemUsedMaxGB },
		func(r store.JobRecord) float64 { return r.FlopsGF },
		func(r store.JobRecord) float64 { return r.ScratchWriteMB },
		func(r store.JobRecord) float64 { return r.WorkWriteMB },
		func(r store.JobRecord) float64 { return r.ReadMB },
		func(r store.JobRecord) float64 { return r.IBTxMB },
		func(r store.JobRecord) float64 { return r.IBRxMB },
		func(r store.JobRecord) float64 { return r.LnetTxMB },
	} {
		float64s(metric)
	}
	if id != 23 {
		t.Fatalf("built %d blocks; the v1 layout has 23", id)
	}
	return out
}

// TestSnapshotLayoutPinned holds the codec to the v1 layout built
// independently of it: EncodeColumns and SaveBinary must produce
// exactly the hand-built bytes, and DecodeColumns of those bytes must
// give the rows back. Encoder and decoder share one walk over the
// columns, so a reorder of that walk round-trips through every other
// test; only bytes fixed outside the codec catch it, and with them
// every snapshot already on disk.
func TestSnapshotLayoutPinned(t *testing.T) {
	want := layoutBytes(t, layoutRows)
	st := store.New()
	for _, r := range layoutRows {
		st.Add(r)
	}
	if got := store.EncodeColumns(st.Columns()); !bytes.Equal(got, want) {
		t.Errorf("EncodeColumns: %d bytes differ from the v1 layout's %d at offset %d", len(got), len(want), firstDiff(got, want))
	}
	var saved bytes.Buffer
	if err := st.SaveBinary(&saved); err != nil {
		t.Fatal(err)
	}
	if got := saved.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("SaveBinary: %d bytes differ from the v1 layout's %d at offset %d", len(got), len(want), firstDiff(got, want))
	}
	c, err := store.DecodeColumns(want)
	if err != nil {
		t.Fatalf("DecodeColumns of the v1 layout: %v", err)
	}
	back := store.FromColumns(c)
	if back.Len() != len(layoutRows) {
		t.Fatalf("decoded %d rows, want %d", back.Len(), len(layoutRows))
	}
	for i, want := range layoutRows {
		if got := back.Record(i); !reflect.DeepEqual(got, want) {
			t.Errorf("row %d decoded as %+v, want %+v", i, got, want)
		}
	}
}

// TestManifestLayoutPinned holds the manifest codec to its v1 layout
// built by hand, with encoding/binary and crc32 alone, from the format
// comment: the 24-byte header, then one 44-byte entry per shard (id
// i64 | rows u64 | minEnd i64 | maxEnd i64 | size u64 | hash u32), then
// the CRC32-IEEE of everything before it. EncodeManifest must produce
// those bytes and DecodeManifest must give the entries back: a field
// swapped the same way in both round-trips through every other test.
func TestManifestLayoutPinned(t *testing.T) {
	day := int64(19500) * store.SecondsPerDay
	entries := []store.ShardInfo{
		{ID: 19500, Rows: 7, MinEnd: day + 60, MaxEnd: day + 3600, Size: 4096, Hash: 0xdeadbeef},
		{ID: 19502, Rows: 11, MinEnd: day + 2*store.SecondsPerDay + 5, MaxEnd: day + 3*store.SecondsPerDay - 1, Size: 8192, Hash: 0x0badf00d},
	}
	le := binary.LittleEndian
	want := []byte("SUPRMMS1")
	want = le.AppendUint32(want, 1) // version
	want = le.AppendUint32(want, 0) // flags
	want = le.AppendUint64(want, uint64(len(entries)))
	for _, e := range entries {
		want = le.AppendUint64(want, uint64(e.ID))
		want = le.AppendUint64(want, uint64(e.Rows))
		want = le.AppendUint64(want, uint64(e.MinEnd))
		want = le.AppendUint64(want, uint64(e.MaxEnd))
		want = le.AppendUint64(want, uint64(e.Size))
		want = le.AppendUint32(want, e.Hash)
	}
	want = le.AppendUint32(want, crc32.ChecksumIEEE(want))
	if len(want) != 24+2*44+4 {
		t.Fatalf("hand-built manifest is %d bytes, want %d", len(want), 24+2*44+4)
	}

	if got := store.EncodeManifest(entries); !bytes.Equal(got, want) {
		t.Errorf("EncodeManifest: %d bytes differ from the v1 layout's %d at offset %d", len(got), len(want), firstDiff(got, want))
	}
	back, err := store.DecodeManifest(want)
	if err != nil {
		t.Fatalf("DecodeManifest of the v1 layout: %v", err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Errorf("decoded %+v, want %+v", back, entries)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestMetricPositions ties the three statements of a metric's place
// together: MetricPos is AllMetrics' inverse, and Value reads the
// JobRecord field whose JSON name is the metric's.
func TestMetricPositions(t *testing.T) {
	raw, err := json.Marshal(layoutRows[1])
	if err != nil {
		t.Fatal(err)
	}
	var byName map[string]any
	if err := json.Unmarshal(raw, &byName); err != nil {
		t.Fatal(err)
	}
	r := layoutRows[1]
	for k, m := range store.AllMetrics() {
		if pos := store.MetricPos(m); pos != k {
			t.Errorf("MetricPos(%s) = %d, want %d (its AllMetrics position)", m, pos, k)
		}
		if got, want := r.Value(m), byName[string(m)]; got != want {
			t.Errorf("Value(%s) = %v, want the %q field's %v", m, got, m, want)
		}
	}
	if n := len(store.AllMetrics()); n != store.NumMetrics {
		t.Errorf("AllMetrics has %d metrics, NumMetrics says %d", n, store.NumMetrics)
	}
}
