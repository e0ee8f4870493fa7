package procfs

import (
	"math"
	"testing"
	"testing/quick"

	"supremm/internal/cluster"
)

func TestKeyString(t *testing.T) {
	cases := []struct {
		k    Key
		want string
	}{
		{Key{Name: "user", Class: Event, Unit: "cs"}, "user,E,U=cs"},
		{Key{Name: "MemUsed", Class: Gauge, Unit: "KB"}, "MemUsed,U=KB"},
		{Key{Name: "rx_packets", Class: Event}, "rx_packets,E"},
		{Key{Name: "segs_used", Class: Gauge}, "segs_used"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestSchemaIndex(t *testing.T) {
	s := CPUSchema()
	if i := s.Index("idle"); i != 3 {
		t.Errorf("Index(idle) = %d, want 3", i)
	}
	if i := s.Index("bogus"); i != -1 {
		t.Errorf("Index(bogus) = %d, want -1", i)
	}
}

func TestSnapshotAddGetSet(t *testing.T) {
	s := NewSnapshot("node0")
	s.Register(TypeCPU, CPUSchema())
	s.Add(TypeCPU, "0", "user", 100)
	s.Add(TypeCPU, "0", "user", 50)
	if got := s.Get(TypeCPU, "0", "user"); got != 150 {
		t.Errorf("user = %d, want 150", got)
	}
	s.Register(TypeMem, MemSchema())
	s.Set(TypeMem, "0", "MemUsed", 1234)
	s.Set(TypeMem, "0", "MemUsed", 999) // gauges overwrite
	if got := s.Get(TypeMem, "0", "MemUsed"); got != 999 {
		t.Errorf("MemUsed = %d, want 999", got)
	}
	// Unknown reads are zero, never panic.
	if got := s.Get("nope", "x", "y"); got != 0 {
		t.Errorf("unknown type read = %d", got)
	}
	if got := s.Get(TypeCPU, "99", "user"); got != 0 {
		t.Errorf("unknown device read = %d", got)
	}
	if got := s.Get(TypeCPU, "0", "nokey"); got != 0 {
		t.Errorf("unknown key read = %d", got)
	}
}

func TestSnapshotAddPanics(t *testing.T) {
	s := NewSnapshot("n")
	s.Register(TypeCPU, CPUSchema())
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unregistered type add", func() { s.Add("zzz", "0", "user", 1) })
	mustPanic("unknown key add", func() { s.Add(TypeCPU, "0", "zzz", 1) })
	mustPanic("unregistered type set", func() { s.Set("zzz", "0", "user", 1) })
	mustPanic("unknown key set", func() { s.Set(TypeCPU, "0", "zzz", 1) })
}

func TestCounterWraparound(t *testing.T) {
	s := NewSnapshot("n")
	s.Register(TypeNet, NetSchema())
	s.Add(TypeNet, "eth0", "rx_bytes", math.MaxUint64)
	s.Add(TypeNet, "eth0", "rx_bytes", 5)
	if got := s.Get(TypeNet, "eth0", "rx_bytes"); got != 4 {
		t.Errorf("wrapped counter = %d, want 4", got)
	}
}

func TestDeviceRegistrationOrder(t *testing.T) {
	ts := NewTypeStats(NetSchema())
	ts.Values("eth1")
	ts.Values("eth0")
	ts.Values("eth1") // repeat must not duplicate
	devs := ts.Devices()
	if len(devs) != 2 || devs[0] != "eth1" || devs[1] != "eth0" {
		t.Errorf("devices = %v", devs)
	}
}

func TestRegisterReplaces(t *testing.T) {
	s := NewSnapshot("n")
	s.Register(TypeCPU, CPUSchema())
	s.Register(TypeBlock, BlockSchema())
	s.Add(TypeCPU, "0", "user", 7)
	s.Register(TypeCPU, CPUSchema()) // re-register clears
	if got := s.Get(TypeCPU, "0", "user"); got != 0 {
		t.Errorf("re-registered value = %d, want 0", got)
	}
	// One entry per type, in first-registration order.
	if names := s.TypeNames(); len(names) != 2 || names[0] != TypeCPU || names[1] != TypeBlock {
		t.Errorf("type names = %v, want [cpu block]", names)
	}
}

func TestNewNodeSnapshotRanger(t *testing.T) {
	cfg := cluster.RangerConfig()
	s := NewNodeSnapshot(cfg, "c000-000.ranger")
	if s.Hostname != "c000-000.ranger" {
		t.Errorf("hostname = %q", s.Hostname)
	}
	if s.Arch != cluster.AMDOpteron {
		t.Errorf("arch = %v", s.Arch)
	}
	if got := len(s.Type(TypeCPU).Devices()); got != 16 {
		t.Errorf("cpu devices = %d, want 16", got)
	}
	if got := len(s.Type(TypeMem).Devices()); got != 4 {
		t.Errorf("mem sockets = %d, want 4", got)
	}
	// Per-socket MemTotal should sum to the node's 32 GB.
	var total uint64
	for _, dev := range s.Type(TypeMem).Devices() {
		total += s.Get(TypeMem, dev, "MemTotal")
	}
	if want := uint64(32 << 20); total != want { // KB
		t.Errorf("MemTotal sum = %d KB, want %d", total, want)
	}
	if s.Type(TypeAMDPMC) == nil {
		t.Error("Ranger snapshot missing AMD PMC block")
	}
	if s.Type(TypeIntelPMC) != nil {
		t.Error("Ranger snapshot should not have Intel PMC block")
	}
	if s.Type(TypeNFS) != nil {
		t.Error("Ranger has no NFS mount")
	}
	if got := len(s.Type(TypeLlite).Devices()); got != 3 {
		t.Errorf("Ranger lustre mounts = %d, want 3 (scratch/share/work)", got)
	}
}

func TestNewNodeSnapshotLonestar4(t *testing.T) {
	cfg := cluster.Lonestar4Config()
	s := NewNodeSnapshot(cfg, "c000-000.lonestar4")
	if s.Arch != cluster.IntelWestmere {
		t.Errorf("arch = %v", s.Arch)
	}
	if got := len(s.Type(TypeCPU).Devices()); got != 12 {
		t.Errorf("cpu devices = %d, want 12", got)
	}
	if s.Type(TypeIntelPMC) == nil {
		t.Error("LS4 snapshot missing Intel PMC block")
	}
	if s.Type(TypeNFS) == nil {
		t.Error("LS4 snapshot missing NFS block")
	}
	if got := len(s.Type(TypeIntelPMC).Schema); got != 3 {
		t.Errorf("Intel PMC schema size = %d, want 3", got)
	}
}

func TestPMCType(t *testing.T) {
	if typ, _ := PMCBlock(cluster.AMDOpteron); typ != TypeAMDPMC {
		t.Error("AMD PMC type wrong")
	}
	if typ, _ := PMCBlock(cluster.IntelWestmere); typ != TypeIntelPMC {
		t.Error("Intel PMC type wrong")
	}
}

func TestPMCEventsPerArch(t *testing.T) {
	if _, amd := PMCBlock(cluster.AMDOpteron); len(amd) != 4 || amd[0].Name != "FLOPS" {
		t.Errorf("AMD events = %v", amd)
	}
	for _, arch := range []cluster.Microarch{cluster.IntelWestmere, cluster.IntelSandyBridge} {
		if _, intel := PMCBlock(arch); len(intel) != 3 || intel[2].Name != "L1D_HITS" {
			t.Errorf("%v events = %v", arch, intel)
		}
	}
}

func TestEventCountersMonotonicProperty(t *testing.T) {
	// Property: a sequence of Adds never decreases a counter unless it
	// wraps, i.e. sum of deltas mod 2^64 equals the final value.
	f := func(deltas []uint32) bool {
		s := NewSnapshot("n")
		s.Register(TypeIRQ, IRQSchema())
		var want uint64
		for _, d := range deltas {
			s.Add(TypeIRQ, "-", "hw_irq", uint64(d))
			want += uint64(d)
		}
		return s.Get(TypeIRQ, "-", "hw_irq") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllSchemasHaveUniqueKeys(t *testing.T) {
	schemas := map[string]Schema{
		"cpu": CPUSchema(), "mem": MemSchema(), "vm": VMSchema(),
		"net": NetSchema(), "ib": IBSchema(), "llite": LliteSchema(),
		"lnet": LnetSchema(), "nfs": NFSSchema(), "block": BlockSchema(),
		"sysv": SysvSchema(), "irq": IRQSchema(), "numa": NUMASchema(),
		"ps": PSSchema(), "tmpfs": TmpfsSchema(),
		"amd_pmc": AMDPMCSchema(), "intel_pmc": IntelPMCSchema(),
	}
	for name, s := range schemas {
		seen := map[string]bool{}
		for _, k := range s {
			if k.Name == "" {
				t.Errorf("%s: empty key name", name)
			}
			if seen[k.Name] {
				t.Errorf("%s: duplicate key %q", name, k.Name)
			}
			seen[k.Name] = true
		}
	}
}

func TestPanasasMountsRegistered(t *testing.T) {
	cfg := cluster.RangerConfig()
	cfg.PanasasMounts = []string{"panfs_scratch"}
	s := NewNodeSnapshot(cfg, "h")
	if s.Type(TypePanfs) == nil {
		t.Fatal("panfs not registered")
	}
	if got := s.Type(TypePanfs).Devices(); len(got) != 1 || got[0] != "panfs_scratch" {
		t.Errorf("panfs devices = %v", got)
	}
	// Absent by default.
	plain := NewNodeSnapshot(cluster.RangerConfig(), "h2")
	if plain.Type(TypePanfs) != nil {
		t.Error("panfs should not be registered without mounts")
	}
}
