package taccstats

import (
	"bytes"
	"strings"
	"testing"

	"supremm/internal/procfs"
	"supremm/internal/reference"
)

// TestParseStreamRecordsMatchParseFile holds the layout's resolved
// reads, the ones the ingest plan compiles, to reference.Parse: every
// value of every record read through Layout.Column equals the
// reference's.
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

	ref, err := reference.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	sf, err := ParseStream(bytes.NewReader(data), func(rec *Record) error {
		for typ, devs := range ref.Records[n].Data {
			for dev, line := range devs {
				for ki, k := range line.Schema {
					col := rec.Layout().Column(typ, dev, k.Name)
					if col < 0 || rec.Flat()[col] != line.Values[ki] {
						t.Errorf("rec %d %s/%s/%s: column %d, want %d", n, typ, dev, k.Name, col, line.Values[ki])
					}
				}
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(ref.Records) {
		t.Fatalf("streamed %d records, the reference read %d", n, len(ref.Records))
	}
	if sf.Hostname != ref.Hostname || sf.Version != ref.Version {
		t.Errorf("headers differ: %+v vs %+v", sf, ref)
	}
}

// TestParseStreamSteadyStateAllocs pins the zero-allocation steady
// state: once a parse has warmed the scanner buffer pool, what a file
// allocates is its layout's, and twice the records cost no more.
func TestParseStreamSteadyStateAllocs(t *testing.T) {
	allocs := func(records int) float64 {
		data := benchFile(t, records)
		return testing.AllocsPerRun(20, func() {
			if _, err := ParseStream(bytes.NewReader(data), func(*Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(144), allocs(288)
	if long > short {
		t.Errorf("288 records allocate %v times, 144 records %v: the steady-state loop allocates", long, short)
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
		r := streamedRecord(rec)
		v, ok := r.Get("cpu", "1", "user")
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
