package taccstats

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"supremm/internal/procfs"
)

// TestFormatPropertyRoundTrip fuzzes random schemas, devices and values
// through the writer and parser: whatever is written must parse back
// identically.
func TestFormatPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, nTypes, nDevs, nKeys uint8, jobID int64) bool {
		rng := rand.New(rand.NewSource(seed))
		types := int(nTypes)%4 + 1
		devs := int(nDevs)%3 + 1
		keys := int(nKeys)%5 + 1
		if jobID < 0 {
			jobID = -jobID
		}

		type path struct{ typ, dev, key string }
		snap := procfs.NewSnapshot("fuzz-host")
		snap.Time = 1 + rng.Int63n(1e9)
		expect := make(map[path]uint64)
		for ti := 0; ti < types; ti++ {
			typ := fmt.Sprintf("type%d", ti)
			schema := make(procfs.Schema, keys)
			for ki := range schema {
				class := procfs.Gauge
				if ki%2 == 0 {
					class = procfs.Event
				}
				unit := ""
				if ki%3 == 0 {
					unit = "KB"
				}
				schema[ki] = procfs.Key{Name: fmt.Sprintf("k%d", ki), Class: class, Unit: unit}
			}
			snap.Register(typ, schema)
			for di := 0; di < devs; di++ {
				dev := fmt.Sprintf("d%d", di)
				for ki := range schema {
					v := rng.Uint64()
					snap.Set(typ, dev, schema[ki].Name, v)
					expect[path{typ, dev, schema[ki].Name}] = v
				}
			}
		}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteHeader(snap, "fuzz_arch"); err != nil {
			return false
		}
		if err := w.WriteRecord(snap, fmt.Sprintf("begin %d", jobID)); err != nil {
			return false
		}
		parsed, err := parseFile(&buf)
		if err != nil {
			return false
		}
		if parsed.Hostname != "fuzz-host" || len(parsed.Records) != 1 {
			return false
		}
		rec := parsed.Records[0]
		if rec.Time != snap.Time || rec.Mark != "begin" || rec.JobID != jobID {
			return false
		}
		for p, want := range expect {
			got, ok := rec.Get(parsed.Schemas, p.typ, p.dev, p.key)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestParsePropertyNeverPanics throws random byte soup at the parser:
// it may reject, but must never panic.
func TestParsePropertyNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = parseFile(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParsePropertyStructuredGarbage mutates a valid file and checks
// the parser either accepts or rejects cleanly.
func TestParsePropertyStructuredGarbage(t *testing.T) {
	base := "$tacc_stats 2.0\n$hostname h\n!cpu user,E idle,E\n100\ncpu 0 1 2\n200\ncpu 0 3 4\n"
	f := func(pos uint16, b byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		data := []byte(base)
		data[int(pos)%len(data)] = b
		_, _ = parseFile(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
