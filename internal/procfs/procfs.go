// Package procfs provides a synthetic, in-memory equivalent of the Linux
// /proc and /sys counter trees that TACC_Stats reads on a real node.
//
// On production hardware TACC_Stats collectors read key/value counter
// sets resolved per core, per socket, per device or per mount, where most
// values are monotonically increasing event counters (which wrap at the
// register width) and some are gauges. This package reproduces exactly
// that data model: a Snapshot holds, for each stat type, a schema of
// typed keys and a value vector per device. The simulation engine mutates
// snapshots through the same Add/Set operations the kernel would perform,
// and the taccstats collectors read them through the same read-only view
// they would use for real /proc files, so the measurement pipeline
// downstream is identical to the deployed tool's.
package procfs

import (
	"fmt"

	"supremm/internal/cluster"
)

// KeyClass distinguishes monotonically increasing event counters from
// point-in-time gauges. This mirrors the ",E" (event) annotation in the
// real TACC_Stats schema descriptors.
type KeyClass int

const (
	// Gauge values are instantaneous readings (e.g. MemUsed).
	Gauge KeyClass = iota
	// Event values are cumulative counters that only move forward and
	// wrap at 64 bits (e.g. rx_bytes).
	Event
)

// Key is one column of a stat type's schema.
type Key struct {
	Name  string
	Class KeyClass
	Unit  string // "KB", "B", "cs" (centiseconds), "" for counts
}

// String renders the key in TACC_Stats schema descriptor form:
// name[,E][,U=unit].
func (k Key) String() string {
	s := k.Name
	if k.Class == Event {
		s += ",E"
	}
	if k.Unit != "" {
		s += ",U=" + k.Unit
	}
	return s
}

// Schema is an ordered list of keys for one stat type.
type Schema []Key

// Index returns the position of the named key, or -1.
func (s Schema) Index(name string) int {
	for i, k := range s {
		if k.Name == name {
			return i
		}
	}
	return -1
}

// TypeStats holds the per-device value vectors for one stat type.
type TypeStats struct {
	Schema  Schema
	values  map[string][]uint64
	devices []string // insertion-ordered device names
}

// NewTypeStats creates an empty TypeStats with the given schema.
func NewTypeStats(schema Schema) *TypeStats {
	return &TypeStats{Schema: schema, values: make(map[string][]uint64)}
}

// Devices returns the device names in registration order.
func (t *TypeStats) Devices() []string { return t.devices }

// Values returns the value vector for dev, registering the device with a
// zeroed vector on first use.
func (t *TypeStats) Values(dev string) []uint64 {
	v, ok := t.values[dev]
	if !ok {
		v = make([]uint64, len(t.Schema))
		t.values[dev] = v
		t.devices = append(t.devices, dev)
	}
	return v
}

// Get returns the value of key on dev; missing devices or keys read 0.
func (t *TypeStats) Get(dev, key string) uint64 {
	i := t.Schema.Index(key)
	if i < 0 {
		return 0
	}
	v, ok := t.values[dev]
	if !ok {
		return 0
	}
	return v[i]
}

// Snapshot is the full synthetic /proc view of one node at an instant.
type Snapshot struct {
	Hostname string
	Time     int64             // unix seconds
	Arch     cluster.Microarch // the node's processor: its PMC block is PMCBlock(Arch)
	types    map[string]*TypeStats
	names    []string // insertion-ordered type names
}

// NewSnapshot creates an empty snapshot for a host.
func NewSnapshot(hostname string) *Snapshot {
	return &Snapshot{Hostname: hostname, types: make(map[string]*TypeStats)}
}

// Register installs a stat type with its schema. Registering the same
// name twice replaces the schema and clears its values.
func (s *Snapshot) Register(name string, schema Schema) *TypeStats {
	if _, ok := s.types[name]; !ok {
		s.names = append(s.names, name)
	}
	ts := NewTypeStats(schema)
	s.types[name] = ts
	return ts
}

// Type returns the TypeStats for name, or nil if unregistered.
func (s *Snapshot) Type(name string) *TypeStats { return s.types[name] }

// TypeNames returns the registered type names in registration order.
func (s *Snapshot) TypeNames() []string { return s.names }

// Add increments an Event counter by delta with 64-bit wraparound
// semantics (uint64 addition wraps naturally, exactly like the kernel's
// counters). Adding to an unknown type or key is a programming error and
// panics, because the simulator and the schema registry must agree.
func (s *Snapshot) Add(typ, dev, key string, delta uint64) {
	t := s.types[typ]
	if t == nil {
		panic(fmt.Sprintf("procfs: add to unregistered type %q", typ))
	}
	i := t.Schema.Index(key)
	if i < 0 {
		panic(fmt.Sprintf("procfs: unknown key %q in type %q", key, typ))
	}
	t.Values(dev)[i] += delta
}

// Set stores a Gauge value.
func (s *Snapshot) Set(typ, dev, key string, value uint64) {
	t := s.types[typ]
	if t == nil {
		panic(fmt.Sprintf("procfs: set on unregistered type %q", typ))
	}
	i := t.Schema.Index(key)
	if i < 0 {
		panic(fmt.Sprintf("procfs: unknown key %q in type %q", key, typ))
	}
	t.Values(dev)[i] = value
}

// Get reads one value; unknown types, devices and keys read 0 so
// collectors degrade the way they do on kernels missing a counter.
func (s *Snapshot) Get(typ, dev, key string) uint64 {
	t := s.types[typ]
	if t == nil {
		return 0
	}
	return t.Get(dev, key)
}
