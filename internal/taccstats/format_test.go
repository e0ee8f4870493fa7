package taccstats

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
)

// parsedFile is a raw file with every record materialized: the shape
// the tests read records from.
type parsedFile struct {
	*File
	Records []Record
}

// parseFile reads a complete raw file through ParseStream, keeping a
// materialized copy of every record.
func parseFile(r io.Reader) (*parsedFile, error) {
	var recs []Record
	f, err := ParseStream(r, func(rec *Record) error {
		recs = append(recs, rec.Materialize())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &parsedFile{File: f, Records: recs}, nil
}

func rangerSnap() *procfs.Snapshot {
	cfg := cluster.RangerConfig()
	s := procfs.NewNodeSnapshot(cfg, "c001-001.ranger")
	s.Time = 1307000600
	s.Add(procfs.TypeCPU, "0", "user", 4000)
	s.Add(procfs.TypeCPU, "0", "idle", 59000)
	s.Set(procfs.TypeMem, "0", "MemUsed", 4_000_000)
	s.Add(procfs.TypeIB, "mlx4_0.1", "tx_bytes", 123456789)
	s.Add(procfs.TypeLlite, "scratch", "write_bytes", 987654321)
	s.Add(procfs.TypeAMDPMC, "0", "FLOPS", 42)
	return s
}

func TestWriteAndParseRoundTrip(t *testing.T) {
	snap := rangerSnap()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(snap, "begin 42"); err != nil {
		t.Fatal(err)
	}
	snap.Time += 600
	snap.Add(procfs.TypeCPU, "0", "user", 500)
	if err := w.WriteRecord(snap, ""); err != nil {
		t.Fatal(err)
	}
	snap.Time += 600
	if err := w.WriteRecord(snap, "end 42"); err != nil {
		t.Fatal(err)
	}

	f, err := parseFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hostname != "c001-001.ranger" || f.Arch != "amd64_opteron" || f.Version != FormatVersion {
		t.Errorf("header: %+v", f)
	}
	if len(f.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(f.Records))
	}
	r0, r1, r2 := f.Records[0], f.Records[1], f.Records[2]
	if r0.Mark != "begin" || r0.JobID != 42 {
		t.Errorf("r0 mark: %+v", r0)
	}
	if r1.Mark != "" || r1.JobID != 0 {
		t.Errorf("r1 mark: %+v", r1)
	}
	if r2.Mark != "end" || r2.JobID != 42 {
		t.Errorf("r2 mark: %+v", r2)
	}
	if r1.Time-r0.Time != 600 {
		t.Errorf("timestamps: %d %d", r0.Time, r1.Time)
	}
	// Counter values round trip.
	v, ok := r0.Get(f.Schemas, procfs.TypeCPU, "0", "user")
	if !ok || v != 4000 {
		t.Errorf("r0 cpu user = %d (%v)", v, ok)
	}
	v, ok = r1.Get(f.Schemas, procfs.TypeCPU, "0", "user")
	if !ok || v != 4500 {
		t.Errorf("r1 cpu user = %d (%v)", v, ok)
	}
	v, ok = r0.Get(f.Schemas, procfs.TypeIB, "mlx4_0.1", "tx_bytes")
	if !ok || v != 123456789 {
		t.Errorf("ib tx = %d (%v)", v, ok)
	}
	// Schema annotations survive.
	cpuSchema := f.Schemas[procfs.TypeCPU]
	if cpuSchema.Index("idle") != 3 {
		t.Errorf("cpu schema order lost: %+v", cpuSchema)
	}
	if cpuSchema[0].Class != procfs.Event || cpuSchema[0].Unit != "cs" {
		t.Errorf("cpu user key annotations lost: %+v", cpuSchema[0])
	}
	memSchema := f.Schemas[procfs.TypeMem]
	if memSchema[0].Class != procfs.Gauge || memSchema[0].Unit != "KB" {
		t.Errorf("mem key annotations lost: %+v", memSchema[0])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	header := "$tacc_stats 2.0\n$hostname h\n$arch a\n!cpu user,E idle,E\n"
	bad := []struct {
		name, content string
	}{
		{"data before timestamp", header + "cpu 0 1 2\n"},
		{"undeclared type", header + "100\nmem 0 1 2\n"},
		{"value count mismatch", header + "100\ncpu 0 1 2 3\n"},
		{"bad value", header + "100\ncpu 0 1 x\n"},
		{"bad timestamp mark", header + "100 weird\n"},
		{"bad job id", header + "100 begin abc\n"},
		{"overlong timestamp line", header + "100 begin 1 extra\n"},
		{"malformed schema", "!cpu\n"},
		{"unknown key annotation", "!cpu user,Z\n"},
		{"malformed header", "$loner\n"},
		{"short data line", header + "100\ncpu 0\n"},
	}
	for _, c := range bad {
		if _, err := parseFile(strings.NewReader(c.content)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseToleratesUnknownHeadersAndBlanks(t *testing.T) {
	content := "$tacc_stats 2.0\n$hostname h\n$future stuff\n\n!cpu user,E\n100\ncpu 0 7\n\n"
	f, err := parseFile(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 1 {
		t.Fatalf("records = %d", len(f.Records))
	}
	if v, ok := f.Records[0].Get(f.Schemas, "cpu", "0", "user"); !ok || v != 7 {
		t.Errorf("value = %d (%v)", v, ok)
	}
}

func TestRotateMark(t *testing.T) {
	content := "$tacc_stats 2.0\n!cpu user,E\n100 rotate\ncpu 0 1\n"
	f, err := parseFile(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if f.Records[0].Mark != "rotate" {
		t.Errorf("mark = %q", f.Records[0].Mark)
	}
}

func TestRecordGetMisses(t *testing.T) {
	content := "$tacc_stats 2.0\n!cpu user,E\n100\ncpu 0 1\n"
	f, err := parseFile(strings.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	r := f.Records[0]
	if _, ok := r.Get(f.Schemas, "mem", "0", "MemUsed"); ok {
		t.Error("missing type should not be ok")
	}
	if _, ok := r.Get(f.Schemas, "cpu", "9", "user"); ok {
		t.Error("missing device should not be ok")
	}
	if _, ok := r.Get(f.Schemas, "cpu", "0", "nokey"); ok {
		t.Error("missing key should not be ok")
	}
}

func TestWriterByteAccounting(t *testing.T) {
	snap := rangerSnap()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(snap, ""); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Errorf("BytesWritten = %d, buffer has %d", w.BytesWritten(), buf.Len())
	}
}

func TestSelfDescribingFormatIsPlainText(t *testing.T) {
	// §3: "unified, consistent, and self-describing plain-text format".
	snap := rangerSnap()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(snap, ""); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf.Bytes() {
		if b != '\n' && (b < 0x20 || b > 0x7e) {
			t.Fatalf("non-printable byte %#x in output", b)
		}
	}
	// Every registered type has a schema line.
	text := buf.String()
	for _, typ := range snap.TypeNames() {
		if !strings.Contains(text, "!"+typ+" ") {
			t.Errorf("missing schema line for %q", typ)
		}
	}
}
