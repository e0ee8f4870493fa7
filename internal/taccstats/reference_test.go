package taccstats

import (
	"errors"
	"strconv"
	"strings"

	"supremm/internal/procfs"
)

// refFile is what refParse reads from a raw file: the header fields,
// the last declaration of every schema, and every record as a nested
// map.
type refFile struct {
	Version, Hostname, Arch string
	Schemas                 map[string]procfs.Schema
	Records                 []Record
}

var errRef = errors.New("reference: rejected")

// isRefSpace is the format's whitespace set. strings.Fields would also
// split on Unicode spaces such as U+00A0, which the format does not
// treat as separators.
func isRefSpace(r rune) bool {
	return r == ' ' || r == '\t' || r == '\n' || r == '\v' || r == '\f' || r == '\r'
}

// refParse is the tests' naive reading of the raw format, written from
// the format's rules without sharing a line of code with ParseStream:
// split into lines, then into fields, parse numbers with strconv, and
// keep each record as a map of maps. A data line's type must be
// declared by an earlier schema line, and its value count must match
// that type's latest schema; a later line for the same type and device
// in one record replaces the earlier one. Lines over the scanner's
// 16 MB limit are out of its scope.
func refParse(data []byte) (*refFile, error) {
	f := &refFile{Schemas: map[string]procfs.Schema{}}
	var cur *Record
	for _, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimFunc(raw, isRefSpace)
		if line == "" {
			continue
		}
		fields := strings.FieldsFunc(line, isRefSpace)
		switch c := line[0]; {
		case c == '$':
			key, val, ok := strings.Cut(line[1:], " ")
			if !ok {
				return nil, errRef
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
			fields = strings.FieldsFunc(line[1:], isRefSpace)
			if len(fields) < 2 {
				return nil, errRef
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
						return nil, errRef
					}
				}
				schema = append(schema, k)
			}
			f.Schemas[fields[0]] = schema
		case c >= '0' && c <= '9':
			rec := Record{Data: map[string]map[string][]uint64{}}
			ts, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, errRef
			}
			rec.Time = ts
			switch {
			case len(fields) == 2 && fields[1] == "rotate":
				rec.Mark = "rotate"
			case len(fields) == 3 && (fields[1] == "begin" || fields[1] == "end"):
				rec.Mark = fields[1]
				if rec.JobID, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
					return nil, errRef
				}
			case len(fields) != 1:
				return nil, errRef
			}
			f.Records = append(f.Records, rec)
			cur = &f.Records[len(f.Records)-1]
		default:
			if cur == nil || len(fields) < 2 {
				return nil, errRef
			}
			schema, ok := f.Schemas[fields[0]]
			if !ok || len(fields)-2 != len(schema) {
				return nil, errRef
			}
			vals := make([]uint64, len(schema))
			for i, tok := range fields[2:] {
				v, err := strconv.ParseUint(tok, 10, 64)
				if err != nil {
					return nil, errRef
				}
				vals[i] = v
			}
			devs := cur.Data[fields[0]]
			if devs == nil {
				devs = map[string][]uint64{}
				cur.Data[fields[0]] = devs
			}
			devs[fields[1]] = vals
		}
	}
	return f, nil
}
