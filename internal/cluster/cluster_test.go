package cluster

import (
	"math"
	"strings"
	"testing"
)

func TestRangerConfigMatchesPaper(t *testing.T) {
	cfg := RangerConfig()
	if cfg.Nodes != 3936 {
		t.Errorf("Ranger nodes = %d, want 3936", cfg.Nodes)
	}
	if got := cfg.CoresPerNode(); got != 16 {
		t.Errorf("Ranger cores/node = %d, want 16", got)
	}
	if cfg.MemPerNodeGB != 32 {
		t.Errorf("Ranger mem = %v, want 32", cfg.MemPerNodeGB)
	}
	// The paper quotes a benchmarked peak of 579 TF.
	if peak := cfg.PeakTFlops(); math.Abs(peak-579) > 1 {
		t.Errorf("Ranger peak = %v TF, want ~579", peak)
	}
	if cfg.Arch != AMDOpteron {
		t.Errorf("Ranger arch = %v", cfg.Arch)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Ranger config invalid: %v", err)
	}
}

func TestLonestar4ConfigMatchesPaper(t *testing.T) {
	cfg := Lonestar4Config()
	if cfg.Nodes != 1088 {
		t.Errorf("LS4 nodes = %d, want 1088", cfg.Nodes)
	}
	if got := cfg.CoresPerNode(); got != 12 {
		t.Errorf("LS4 cores/node = %d, want 12", got)
	}
	if cfg.MemPerNodeGB != 24 {
		t.Errorf("LS4 mem = %v, want 24", cfg.MemPerNodeGB)
	}
	if !cfg.HasNFS {
		t.Error("LS4 should mount NFS")
	}
	if cfg.Arch != IntelWestmere {
		t.Errorf("LS4 arch = %v", cfg.Arch)
	}
}

func TestMicroarchString(t *testing.T) {
	if AMDOpteron.String() != "amd64_opteron" {
		t.Errorf("got %q", AMDOpteron.String())
	}
	if IntelWestmere.String() != "intel_westmere" {
		t.Errorf("got %q", IntelWestmere.String())
	}
	if !strings.Contains(Microarch(7).String(), "7") {
		t.Errorf("unknown arch string: %q", Microarch(7).String())
	}
}

func TestScaledPreservesShape(t *testing.T) {
	cfg := RangerConfig().Scaled(128)
	if cfg.Nodes != 128 {
		t.Errorf("scaled nodes = %d", cfg.Nodes)
	}
	if cfg.CoresPerNode() != 16 || cfg.MemPerNodeGB != 32 {
		t.Error("scaling must not change per-node shape")
	}
	// Peak scales linearly with nodes.
	full := RangerConfig()
	wantPeak := full.PeakTFlops() * 128 / 3936
	if got := cfg.PeakTFlops(); math.Abs(got-wantPeak) > 1e-9 {
		t.Errorf("scaled peak = %v, want %v", got, wantPeak)
	}
}

func TestValidate(t *testing.T) {
	good := RangerConfig()
	bad := []Config{
		{},
		func() Config { c := good; c.Nodes = 0; return c }(),
		func() Config { c := good; c.SocketsPerNode = 0; return c }(),
		func() Config { c := good; c.MemPerNodeGB = 0; return c }(),
		func() Config { c := good; c.ClockGHz = -1; return c }(),
		func() Config { c := good; c.LustreMounts = nil; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewCluster(t *testing.T) {
	c, err := New(RangerConfig().Scaled(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 10 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	seen := map[string]bool{}
	for i, n := range c.Nodes {
		if n.Index != i {
			t.Errorf("node %d index = %d", i, n.Index)
		}
		if seen[n.Hostname] {
			t.Errorf("duplicate hostname %q", n.Hostname)
		}
		seen[n.Hostname] = true
		if !strings.HasSuffix(n.Hostname, ".ranger") {
			t.Errorf("hostname %q missing cluster suffix", n.Hostname)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestNodeCounts(t *testing.T) {
	c, err := New(Lonestar4Config().Scaled(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.ActiveNodes() != 6 || c.BusyNodes() != 0 || len(c.IdleNodes()) != 6 {
		t.Fatalf("fresh cluster counts wrong: active=%d busy=%d idle=%d",
			c.ActiveNodes(), c.BusyNodes(), len(c.IdleNodes()))
	}
	c.Nodes[0].State = NodeBusy
	c.Nodes[1].State = NodeDown
	if c.ActiveNodes() != 5 {
		t.Errorf("active = %d, want 5", c.ActiveNodes())
	}
	if c.BusyNodes() != 1 {
		t.Errorf("busy = %d, want 1", c.BusyNodes())
	}
	if got := len(c.IdleNodes()); got != 4 {
		t.Errorf("idle = %d, want 4", got)
	}
}

func TestNodeStateString(t *testing.T) {
	for s, want := range map[NodeState]string{NodeIdle: "idle", NodeBusy: "busy", NodeDown: "down"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !strings.Contains(NodeState(9).String(), "9") {
		t.Errorf("unknown state string: %q", NodeState(9).String())
	}
}

func TestStampedeConfigMatchesSection5(t *testing.T) {
	cfg := StampedeConfig()
	if cfg.Nodes != 6400 || cfg.CoresPerNode() != 16 {
		t.Errorf("Stampede shape: %d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode())
	}
	if cfg.Arch != IntelSandyBridge {
		t.Errorf("arch = %v", cfg.Arch)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
	// Base-CPU peak ~2.2 PF (the machine's headline 10 PF included the
	// Phi coprocessors, out of scope here).
	if peak := cfg.PeakTFlops(); math.Abs(peak-2212) > 10 {
		t.Errorf("peak = %v TF, want ~2212", peak)
	}
	if IntelSandyBridge.String() != "intel_sandybridge" {
		t.Errorf("arch string = %q", IntelSandyBridge.String())
	}
}
