package taccstats

import (
	"bytes"
	"strings"
	"testing"

	"supremm/internal/procfs"
)

func TestParseStreamRecordsMatchParseFile(t *testing.T) {
	snap := rangerSnap()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHeader(snap, "amd64_opteron"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.WriteRecord(snap, ""); err != nil {
			t.Fatal(err)
		}
		snap.Time += 600
		snap.Add(procfs.TypeCPU, "0", "user", 500)
	}
	data := buf.Bytes()

	pf, err := parseFile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var times []int64
	sf, err := ParseStream(bytes.NewReader(data), func(rec *Record) error {
		times = append(times, rec.Time)
		i := len(times) - 1
		// Streamed Get must agree with the materialized record.
		for typ, devs := range pf.Records[i].Data {
			for dev, vals := range devs {
				for ki, want := range vals {
					key := pf.Schemas[typ][ki].Name
					got, ok := rec.Get(pf.Schemas, typ, dev, key)
					if !ok || got != want {
						t.Errorf("rec %d %s/%s/%s = %d (%v), want %d", i, typ, dev, key, got, ok, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != len(pf.Records) {
		t.Fatalf("streamed %d records, materialized %d", len(times), len(pf.Records))
	}
	if sf.Hostname != pf.Hostname || sf.Version != pf.Version {
		t.Errorf("headers differ: %+v vs %+v", sf, pf)
	}
}

func TestLayoutColumns(t *testing.T) {
	content := "$tacc_stats 2.0\n!cpu user,E idle,E\n!mem MemUsed,U=KB\n" +
		"100\ncpu 0 1 2\ncpu 1 3 4\nmem 0 500\n" +
		"200\ncpu 0 5 6\ncpu 1 7 8\nmem 0 600\n"
	var lay *Layout
	var lastFlat []uint64
	_, err := ParseStream(strings.NewReader(content), func(rec *Record) error {
		lay = rec.Layout()
		lastFlat = append(lastFlat[:0], rec.Flat()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := lay.Columns("cpu", "idle")
	if len(cols) != 2 || cols[0].Dev != "0" || cols[1].Dev != "1" {
		t.Fatalf("cpu idle columns: %+v", cols)
	}
	if lastFlat[cols[0].Col] != 6 || lastFlat[cols[1].Col] != 8 {
		t.Errorf("idle values via columns: %d %d", lastFlat[cols[0].Col], lastFlat[cols[1].Col])
	}
	if c := lay.Column("mem", "0", "MemUsed"); lastFlat[c] != 600 {
		t.Errorf("mem via Column: %d", lastFlat[c])
	}
	// Unknown paths resolve to -1 rather than erroring.
	if c := lay.Column("cpu", "9", "user"); c != -1 {
		t.Errorf("missing dev col = %d", c)
	}
	if c := lay.Column("nope", "0", "user"); c != -1 {
		t.Errorf("missing type col = %d", c)
	}
	if cols := lay.Columns("cpu", "nokey"); len(cols) != 2 || cols[0].Col != -1 {
		t.Errorf("missing key columns: %+v", cols)
	}
}

func TestParseStreamLateDevice(t *testing.T) {
	// A device appearing mid-file grows the layout; earlier records must
	// read absent for it and the new columns must work.
	content := "$tacc_stats 2.0\n!cpu user,E\n" +
		"100\ncpu 0 1\n" +
		"200\ncpu 0 2\ncpu 1 9\n" +
		"300\ncpu 0 3\n"
	var vals []uint64
	var oks []bool
	var versions []int
	_, err := ParseStream(strings.NewReader(content), func(rec *Record) error {
		v, ok := rec.Get(nil, "cpu", "1", "user")
		vals = append(vals, v)
		oks = append(oks, ok)
		versions = append(versions, rec.Layout().Version())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false}
	for i := range want {
		if oks[i] != want[i] {
			t.Errorf("rec %d: dev 1 present = %v, want %v", i, oks[i], want[i])
		}
	}
	if vals[1] != 9 {
		t.Errorf("rec 1: dev 1 user = %d", vals[1])
	}
	if versions[0] == versions[1] {
		t.Error("layout version must bump when a device appears")
	}
	if versions[1] != versions[2] {
		t.Error("layout version must be stable once devices are known")
	}
}

func TestParseStreamCallbackError(t *testing.T) {
	content := "$tacc_stats 2.0\n!cpu user,E\n100\ncpu 0 1\n200\ncpu 0 2\n"
	calls := 0
	_, err := ParseStream(strings.NewReader(content), func(rec *Record) error {
		calls++
		return errStop
	})
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (abort on first error)", calls)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestMaterializeDetachesFromParserBuffers(t *testing.T) {
	content := "$tacc_stats 2.0\n!cpu user,E\n100\ncpu 0 1\n200\ncpu 0 2\n"
	var mats []Record
	_, err := ParseStream(strings.NewReader(content), func(rec *Record) error {
		mats = append(mats, rec.Materialize())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The parser reuses its flat buffer; materialized copies must keep
	// the values they had at callback time.
	if v := mats[0].Data["cpu"]["0"][0]; v != 1 {
		t.Errorf("rec 0 user = %d, want 1", v)
	}
	if v := mats[1].Data["cpu"]["0"][0]; v != 2 {
		t.Errorf("rec 1 user = %d, want 2", v)
	}
}
