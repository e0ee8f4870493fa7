// Package cluster models the hardware of a Linux HPC cluster at the
// resolution the TACC_Stats tool chain measures it: nodes composed of
// sockets and cores, per-socket memory, block devices, network devices,
// InfiniBand host channel adapters, and Lustre filesystem mounts.
//
// Two presets mirror the systems studied in the paper (§4.1): Ranger
// (3936 nodes, four quad-core 2.3 GHz AMD Opteron sockets, 32 GB) and
// Lonestar4 (1088 nodes, two hexa-core 3.33 GHz Intel Xeon 5680 sockets,
// 24 GB). Experiments typically run scaled-down instances built with
// Scaled(); the per-node shapes are preserved exactly.
package cluster

import (
	"fmt"
)

// Microarch identifies a processor microarchitecture. It determines which
// hardware performance-counter events TACC_Stats programs (§3): FLOPS,
// memory accesses, data-cache fills and SMP/NUMA traffic on AMD Opteron;
// FLOPS, SMP/NUMA traffic and L1 data-cache hits on Intel
// Nehalem/Westmere.
type Microarch int

const (
	// AMDOpteron is the Barcelona-class quad-core Opteron in Ranger.
	AMDOpteron Microarch = iota
	// IntelWestmere is the Xeon 5680 hexa-core part in Lonestar4.
	IntelWestmere
	// IntelSandyBridge is the Xeon E5-2680 in Stampede (§5: "TACC_Stats
	// will soon be deployed on TACC's Stampede").
	IntelSandyBridge
)

// String implements fmt.Stringer.
func (m Microarch) String() string {
	switch m {
	case AMDOpteron:
		return "amd64_opteron"
	case IntelWestmere:
		return "intel_westmere"
	case IntelSandyBridge:
		return "intel_sandybridge"
	default:
		return fmt.Sprintf("microarch(%d)", int(m))
	}
}

// PMCEvents returns the hardware performance-counter events TACC_Stats
// programs for the microarchitecture, in programming order.
func (m Microarch) PMCEvents() []string {
	switch m {
	case AMDOpteron:
		return []string{"FLOPS", "MEM_ACCESS", "DCACHE_FILLS", "NUMA_TRAFFIC"}
	case IntelWestmere, IntelSandyBridge:
		return []string{"FLOPS", "NUMA_TRAFFIC", "L1D_HITS"}
	default:
		return nil
	}
}

// LustreMount describes one Lustre filesystem mount on a node. The paper
// distinguishes scratch (periodically purged, hundreds-of-TB quota) from
// work (non-purged, 200 GB quota) and share mounts (§4.2, Fig 7c).
type LustreMount struct {
	Name    string // "scratch", "work", "share"
	Purged  bool   // scratch is purged periodically
	QuotaGB int64  // per-user quota
}

// Config describes a cluster's hardware shape.
type Config struct {
	Name            string
	Nodes           int
	SocketsPerNode  int
	CoresPerSocket  int
	ClockGHz        float64
	MemPerNodeGB    float64
	Arch            Microarch
	LustreMounts    []LustreMount
	PanasasMounts   []string // panfs mounts (§3 lists Panasas coverage)
	HasNFS          bool     // Lonestar4 mounts NFS over Ethernet
	IBLinkGbps      float64
	FlopsPerCycle   float64 // peak SSE flops per core cycle
	BlockDevices    []string
	EthernetDevices []string
}

// CoresPerNode returns sockets*cores.
func (c Config) CoresPerNode() int { return c.SocketsPerNode * c.CoresPerSocket }

// PeakNodeGFlops returns the per-node peak SSE floating-point rate in
// GFLOP/s implied by the clock, core count and issue width.
func (c Config) PeakNodeGFlops() float64 {
	return c.ClockGHz * float64(c.CoresPerNode()) * c.FlopsPerCycle
}

// PeakTFlops returns the cluster peak in TFLOP/s.
func (c Config) PeakTFlops() float64 {
	return c.PeakNodeGFlops() * float64(c.Nodes) / 1000
}

// Scaled returns a copy of the config with the node count replaced, used
// to run laptop-scale experiments with the paper's per-node shapes.
func (c Config) Scaled(nodes int) Config {
	s := c
	s.Nodes = nodes
	return s
}

// Validate reports configuration errors that would make the simulation
// meaningless.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("cluster: config needs a name")
	case c.Nodes <= 0:
		return fmt.Errorf("cluster %s: nodes must be positive, got %d", c.Name, c.Nodes)
	case c.SocketsPerNode <= 0 || c.CoresPerSocket <= 0:
		return fmt.Errorf("cluster %s: invalid topology %dx%d", c.Name, c.SocketsPerNode, c.CoresPerSocket)
	case c.MemPerNodeGB <= 0:
		return fmt.Errorf("cluster %s: memory must be positive", c.Name)
	case c.ClockGHz <= 0:
		return fmt.Errorf("cluster %s: clock must be positive", c.Name)
	case len(c.LustreMounts) == 0:
		return fmt.Errorf("cluster %s: at least one Lustre mount required", c.Name)
	}
	return nil
}

// RangerConfig returns the Ranger preset: 3936 nodes, 4 sockets of
// quad-core 2.3 GHz AMD Opteron (16 cores), 32 GB, Lustre scratch/share/
// work, InfiniBand. The paper benchmarks Ranger's peak at 579 TF; with
// 4-wide SSE the model gives 2.3*16*4*3936/1000 ≈ 579 TF, matching.
func RangerConfig() Config {
	return Config{
		Name:           "ranger",
		Nodes:          3936,
		SocketsPerNode: 4,
		CoresPerSocket: 4,
		ClockGHz:       2.3,
		MemPerNodeGB:   32,
		Arch:           AMDOpteron,
		LustreMounts: []LustreMount{
			{Name: "scratch", Purged: true, QuotaGB: 400 << 10},
			{Name: "share", Purged: false, QuotaGB: 1 << 10},
			{Name: "work", Purged: false, QuotaGB: 200},
		},
		HasNFS:          false,
		IBLinkGbps:      16, // SDR 4x IB fabric effective
		FlopsPerCycle:   4,
		BlockDevices:    []string{"sda"},
		EthernetDevices: []string{"eth0"},
	}
}

// Lonestar4Config returns the Lonestar4 preset: 1088 Dell PowerEdge M610
// nodes, two hexa-core 3.33 GHz Xeon 5680 sockets (12 cores), 24 GB,
// Lustre + NFS, InfiniBand.
func Lonestar4Config() Config {
	return Config{
		Name:           "lonestar4",
		Nodes:          1088,
		SocketsPerNode: 2,
		CoresPerSocket: 6,
		ClockGHz:       3.33,
		MemPerNodeGB:   24,
		Arch:           IntelWestmere,
		LustreMounts: []LustreMount{
			{Name: "scratch", Purged: true, QuotaGB: 250 << 10},
			{Name: "work", Purged: false, QuotaGB: 200},
		},
		HasNFS:          true,
		IBLinkGbps:      32, // QDR 4x
		FlopsPerCycle:   4,
		BlockDevices:    []string{"sda"},
		EthernetDevices: []string{"eth0", "eth1"},
	}
}

// StampedeConfig returns the Stampede preset the paper's §5 announces
// TACC_Stats deployment on: 6400 Dell C8220 nodes with two 8-core
// 2.7 GHz Xeon E5-2680 sockets and 32 GB (the Phi coprocessors are out
// of TACC_Stats' scope and out of this model's). AVX doubles the
// per-cycle SSE width, which is why the model uses 8 flops/cycle.
func StampedeConfig() Config {
	return Config{
		Name:           "stampede",
		Nodes:          6400,
		SocketsPerNode: 2,
		CoresPerSocket: 8,
		ClockGHz:       2.7,
		MemPerNodeGB:   32,
		Arch:           IntelSandyBridge,
		LustreMounts: []LustreMount{
			{Name: "scratch", Purged: true, QuotaGB: 850 << 10},
			{Name: "work", Purged: false, QuotaGB: 400},
		},
		HasNFS:          true,
		IBLinkGbps:      56, // FDR 4x
		FlopsPerCycle:   8,
		BlockDevices:    []string{"sda"},
		EthernetDevices: []string{"eth0"},
	}
}

// Preset returns the full-size preset named name, as a job record's
// cluster field carries it: "ranger", "lonestar4" or "stampede".
func Preset(name string) (Config, bool) {
	switch name {
	case "ranger":
		return RangerConfig(), true
	case "lonestar4":
		return Lonestar4Config(), true
	case "stampede":
		return StampedeConfig(), true
	}
	return Config{}, false
}

// NodeState enumerates the lifecycle of a node in the simulation.
type NodeState int

const (
	// NodeIdle means powered on and available for scheduling.
	NodeIdle NodeState = iota
	// NodeBusy means running (part of) a job.
	NodeBusy
	// NodeDown means unavailable: a failure or a scheduled shutdown.
	NodeDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeIdle:
		return "idle"
	case NodeBusy:
		return "busy"
	case NodeDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Node is one compute node's identity and scheduling state. Counter
// state lives in procfs.Snapshot; this type intentionally carries only
// what the scheduler and simulator need.
type Node struct {
	Index    int    // 0-based node index
	Hostname string // e.g. "c101-304.ranger"
	State    NodeState
	JobID    int64 // running job, 0 when idle/down
}

// Cluster is a set of nodes sharing a Config.
type Cluster struct {
	Config Config
	Nodes  []*Node
}

// New builds a cluster with hostnames derived from the config name. It
// returns an error if the config is invalid.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Config: cfg, Nodes: make([]*Node, cfg.Nodes)}
	for i := range c.Nodes {
		c.Nodes[i] = &Node{
			Index:    i,
			Hostname: fmt.Sprintf("c%03d-%03d.%s", i/100, i%100, cfg.Name),
		}
	}
	return c, nil
}

// ActiveNodes returns how many nodes are not down (the series of Fig 8).
func (c *Cluster) ActiveNodes() int {
	n := 0
	for _, node := range c.Nodes {
		if node.State != NodeDown {
			n++
		}
	}
	return n
}

// IdleNodes returns the nodes currently available for scheduling.
func (c *Cluster) IdleNodes() []*Node {
	var out []*Node
	for _, node := range c.Nodes {
		if node.State == NodeIdle {
			out = append(out, node)
		}
	}
	return out
}

// BusyNodes returns how many nodes are running jobs.
func (c *Cluster) BusyNodes() int {
	n := 0
	for _, node := range c.Nodes {
		if node.State == NodeBusy {
			n++
		}
	}
	return n
}
