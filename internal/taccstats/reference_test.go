package taccstats

import (
	"bytes"
	"slices"
	"testing"

	"supremm/internal/reference"
)

// streamedRecord is rec in the reference's form, read off its layout's
// slots in order: each present slot's values under its own block's
// schema, a later slot of the same type and device (the block a changed
// schema opened) replacing an earlier one.
func streamedRecord(rec *Record) reference.RawRecord {
	out := reference.RawRecord{Time: rec.Time, Mark: rec.Mark, JobID: rec.JobID,
		Data: map[string]map[string]reference.RawLine{}}
	for i, s := range rec.layout.slots {
		if i >= len(rec.present) || !rec.present[i] {
			continue
		}
		devs := out.Data[s.t.name]
		if devs == nil {
			devs = map[string]reference.RawLine{}
			out.Data[s.t.name] = devs
		}
		devs[s.dev] = reference.RawLine{Schema: s.t.schema,
			Values: append([]uint64(nil), rec.flat[s.off:s.off+len(s.t.schema)]...)}
	}
	return out
}

// parseStreamed reads a whole file through ParseStream into the
// reference's form: the header and schemas, every record, each type's
// devices in slot order, and the layout's Replaced.
func parseStreamed(data []byte) (*reference.RawFile, error) {
	out := &reference.RawFile{Devices: map[string][]string{}}
	var lay *Layout
	f, err := ParseStream(bytes.NewReader(data), func(rec *Record) error {
		lay = rec.layout
		out.Records = append(out.Records, streamedRecord(rec))
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Version, out.Hostname, out.Arch, out.Schemas = f.Version, f.Hostname, f.Arch, f.Schemas
	if lay != nil {
		out.Redeclared = lay.Replaced()
		for _, s := range lay.slots {
			if !slices.Contains(out.Devices[s.t.name], s.dev) {
				out.Devices[s.t.name] = append(out.Devices[s.t.name], s.dev)
			}
		}
	}
	return out, nil
}

// parseChecked reads data through reference.Parse and holds ParseStream
// to the same reading: both accept or both reject, and an accepted file
// reads the same header, schemas, device order, re-declaration and
// records. Every test that reads a raw file checks the parser on it.
func parseChecked(tb testing.TB, data []byte) (*reference.RawFile, error) {
	tb.Helper()
	want, errRef := reference.Parse(data)
	got, errStream := parseStreamed(data)
	if (errRef == nil) != (errStream == nil) {
		tb.Fatalf("reference err=%v, ParseStream err=%v", errRef, errStream)
	}
	if errRef == nil && !reference.Same(got, want) {
		tb.Fatalf("ParseStream and the reference read differently:\n reference   %+v\n ParseStream %+v", want, got)
	}
	return want, errRef
}
