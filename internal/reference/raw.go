package reference

import (
	"errors"
	"slices"
	"strconv"
	"strings"

	"supremm/internal/procfs"
)

// RawFile is what Parse reads from one raw TACC_Stats file.
type RawFile struct {
	Version, Hostname, Arch string
	// Schemas holds the last declaration of every type.
	Schemas map[string]procfs.Schema
	// Devices lists each type's devices in the order their first data
	// lines appear in the file.
	Devices map[string][]string
	// Redeclared names the first type re-declared with a changed schema
	// after a data line of it was read under the schema it replaced; ""
	// when no type was.
	Redeclared string
	Records    []RawRecord
}

// RawRecord is one record: its timestamp line and, for every type and
// device, the last data line the record holds for them.
type RawRecord struct {
	Time int64
	// Mark is "", "begin", "end" or "rotate".
	Mark  string
	JobID int64
	Data  map[string]map[string]RawLine
}

// RawLine is one data line's values, under the schema the line was read
// under.
type RawLine struct {
	Schema procfs.Schema
	Values []uint64
}

// Get reads key of (typ, dev) under the schema its line was read under:
// a later declaration of typ never reinterprets it. An absent type,
// device or key reads 0, false; a key named twice in a schema reads its
// first column.
func (r *RawRecord) Get(typ, dev, key string) (uint64, bool) {
	line, ok := r.Data[typ][dev]
	if !ok {
		return 0, false
	}
	for i, k := range line.Schema {
		if k.Name == key {
			return line.Values[i], true
		}
	}
	return 0, false
}

var errRejected = errors.New("reference: rejected")

// isRawSpace is the format's whitespace set. strings.Fields would also
// split on Unicode spaces such as U+00A0, which the format does not
// treat as separators.
func isRawSpace(r rune) bool {
	return r == ' ' || r == '\t' || r == '\n' || r == '\v' || r == '\f' || r == '\r'
}

// Parse is the naive reading of the raw format, written from the
// format's rules: split into lines, then into fields, parse numbers with
// strconv, and keep each record as a map of maps. A data line's type
// must be declared by an earlier schema line, and its value count must
// match that type's latest schema; a later line for the same type and
// device in one record replaces the earlier one. Lines over 16 MB are
// out of its scope.
func Parse(data []byte) (*RawFile, error) {
	f := &RawFile{Schemas: map[string]procfs.Schema{}, Devices: map[string][]string{}}
	// readSince holds the types a data line was read for since their
	// schema last changed.
	readSince := map[string]bool{}
	var cur *RawRecord
	for _, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimFunc(raw, isRawSpace)
		if line == "" {
			continue
		}
		fields := strings.FieldsFunc(line, isRawSpace)
		switch c := line[0]; {
		case c == '$':
			key, val, ok := strings.Cut(line[1:], " ")
			if !ok {
				return nil, errRejected
			}
			switch key {
			case "tacc_stats":
				f.Version = val
			case "hostname":
				f.Hostname = val
			case "arch":
				f.Arch = val
			}
		case c == '!':
			fields = strings.FieldsFunc(line[1:], isRawSpace)
			if len(fields) < 2 {
				return nil, errRejected
			}
			var schema procfs.Schema
			for _, spec := range fields[1:] {
				parts := strings.Split(spec, ",")
				k := procfs.Key{Name: parts[0]}
				for _, p := range parts[1:] {
					switch {
					case p == "E":
						k.Class = procfs.Event
					case strings.HasPrefix(p, "U="):
						k.Unit = p[2:]
					default:
						return nil, errRejected
					}
				}
				schema = append(schema, k)
			}
			name := fields[0]
			if old, ok := f.Schemas[name]; ok && !slices.Equal(old, schema) {
				if readSince[name] && f.Redeclared == "" {
					f.Redeclared = name
				}
				readSince[name] = false
			}
			f.Schemas[name] = schema
		case c >= '0' && c <= '9':
			rec := RawRecord{Data: map[string]map[string]RawLine{}}
			ts, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, errRejected
			}
			rec.Time = ts
			switch {
			case len(fields) == 2 && fields[1] == "rotate":
				rec.Mark = "rotate"
			case len(fields) == 3 && (fields[1] == "begin" || fields[1] == "end"):
				rec.Mark = fields[1]
				if rec.JobID, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
					return nil, errRejected
				}
			case len(fields) != 1:
				return nil, errRejected
			}
			f.Records = append(f.Records, rec)
			cur = &f.Records[len(f.Records)-1]
		default:
			if cur == nil || len(fields) < 2 {
				return nil, errRejected
			}
			typ, dev := fields[0], fields[1]
			schema, ok := f.Schemas[typ]
			if !ok || len(fields)-2 != len(schema) {
				return nil, errRejected
			}
			vals := make([]uint64, len(schema))
			for i, tok := range fields[2:] {
				v, err := strconv.ParseUint(tok, 10, 64)
				if err != nil {
					return nil, errRejected
				}
				vals[i] = v
			}
			devs := cur.Data[typ]
			if devs == nil {
				devs = map[string]RawLine{}
				cur.Data[typ] = devs
			}
			devs[dev] = RawLine{Schema: schema, Values: vals}
			if !slices.Contains(f.Devices[typ], dev) {
				f.Devices[typ] = append(f.Devices[typ], dev)
			}
			readSince[typ] = true
		}
	}
	return f, nil
}
