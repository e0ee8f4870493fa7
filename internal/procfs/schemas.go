package procfs

import (
	"fmt"

	"supremm/internal/cluster"
)

// Canonical stat type names, matching the TACC_Stats type vocabulary.
const (
	TypeCPU      = "cpu"       // per core
	TypeMem      = "mem"       // per socket
	TypeVM       = "vm"        // node-wide virtual memory activity
	TypeNet      = "net"       // per ethernet device
	TypeIB       = "ib"        // per IB HCA port
	TypeLlite    = "llite"     // Lustre client, per mount
	TypeLnet     = "lnet"      // Lustre networking, node-wide
	TypeNFS      = "nfs"       // NFS client, per mount
	TypeBlock    = "block"     // per block device
	TypeSysv     = "sysv_shm"  // SysV shared memory
	TypeIRQ      = "irq"       // interrupt counts, node-wide
	TypeNUMA     = "numa"      // per socket
	TypePS       = "ps"        // process/scheduler statistics
	TypeTmpfs    = "tmpfs"     // ram-backed filesystem, per mount
	TypePanfs    = "panfs"     // Panasas client, per mount
	TypeAMDPMC   = "amd64_pmc" // per core, AMD hardware counters
	TypeIntelPMC = "intel_pmc" // per core, Intel hardware counters
)

// CPUSchema: per-core scheduler accounting in centiseconds, the
// /proc/stat resolution.
func CPUSchema() Schema {
	return Schema{
		{Name: "user", Class: Event, Unit: "cs"},
		{Name: "nice", Class: Event, Unit: "cs"},
		{Name: "system", Class: Event, Unit: "cs"},
		{Name: "idle", Class: Event, Unit: "cs"},
		{Name: "iowait", Class: Event, Unit: "cs"},
		{Name: "irq", Class: Event, Unit: "cs"},
		{Name: "softirq", Class: Event, Unit: "cs"},
	}
}

// MemSchema: per-socket memory gauges in KB, the /sys/devices/system/node
// resolution TACC_Stats uses.
func MemSchema() Schema {
	return Schema{
		{Name: "MemTotal", Class: Gauge, Unit: "KB"},
		{Name: "MemUsed", Class: Gauge, Unit: "KB"},
		{Name: "MemFree", Class: Gauge, Unit: "KB"},
		{Name: "Buffers", Class: Gauge, Unit: "KB"},
		{Name: "Cached", Class: Gauge, Unit: "KB"},
		{Name: "AnonPages", Class: Gauge, Unit: "KB"},
		{Name: "Slab", Class: Gauge, Unit: "KB"},
	}
}

// VMSchema: node-wide paging and swapping event counters from /proc/vmstat.
func VMSchema() Schema {
	return Schema{
		{Name: "pgpgin", Class: Event, Unit: "KB"},
		{Name: "pgpgout", Class: Event, Unit: "KB"},
		{Name: "pswpin", Class: Event},
		{Name: "pswpout", Class: Event},
		{Name: "pgfault", Class: Event},
		{Name: "pgmajfault", Class: Event},
	}
}

// NetSchema: per-device /proc/net/dev counters.
func NetSchema() Schema {
	return Schema{
		{Name: "rx_bytes", Class: Event, Unit: "B"},
		{Name: "rx_packets", Class: Event},
		{Name: "rx_errs", Class: Event},
		{Name: "tx_bytes", Class: Event, Unit: "B"},
		{Name: "tx_packets", Class: Event},
		{Name: "tx_errs", Class: Event},
	}
}

// IBSchema: per-port InfiniBand extended counters. Real hardware exposes
// port_xmit_data in 4-byte words; we keep bytes for clarity and note the
// unit in the schema so the parser has no ambiguity.
func IBSchema() Schema {
	return Schema{
		{Name: "rx_bytes", Class: Event, Unit: "B"},
		{Name: "rx_packets", Class: Event},
		{Name: "tx_bytes", Class: Event, Unit: "B"},
		{Name: "tx_packets", Class: Event},
	}
}

// LliteSchema: per-mount Lustre client counters.
func LliteSchema() Schema {
	return Schema{
		{Name: "read_bytes", Class: Event, Unit: "B"},
		{Name: "write_bytes", Class: Event, Unit: "B"},
		{Name: "open", Class: Event},
		{Name: "close", Class: Event},
		{Name: "fsync", Class: Event},
	}
}

// LnetSchema: node-wide Lustre networking counters.
func LnetSchema() Schema {
	return Schema{
		{Name: "rx_bytes", Class: Event, Unit: "B"},
		{Name: "tx_bytes", Class: Event, Unit: "B"},
		{Name: "rx_msgs", Class: Event},
		{Name: "tx_msgs", Class: Event},
	}
}

// NFSSchema: per-mount NFS client counters.
func NFSSchema() Schema {
	return Schema{
		{Name: "read_bytes", Class: Event, Unit: "B"},
		{Name: "write_bytes", Class: Event, Unit: "B"},
		{Name: "ops", Class: Event},
	}
}

// BlockSchema: per-device block layer counters in 512-byte sectors, the
// /sys/block/<dev>/stat resolution.
func BlockSchema() Schema {
	return Schema{
		{Name: "rd_ios", Class: Event},
		{Name: "rd_sectors", Class: Event},
		{Name: "wr_ios", Class: Event},
		{Name: "wr_sectors", Class: Event},
		{Name: "in_flight", Class: Gauge},
	}
}

// SysvSchema: SysV shared memory segment usage.
func SysvSchema() Schema {
	return Schema{
		{Name: "mem_used", Class: Gauge, Unit: "B"},
		{Name: "segs_used", Class: Gauge},
	}
}

// IRQSchema: node-wide interrupt counts.
func IRQSchema() Schema {
	return Schema{
		{Name: "hw_irq", Class: Event},
		{Name: "sw_irq", Class: Event},
	}
}

// NUMASchema: per-socket NUMA allocation counters from
// /sys/devices/system/node/nodeN/numastat.
func NUMASchema() Schema {
	return Schema{
		{Name: "numa_hit", Class: Event},
		{Name: "numa_miss", Class: Event},
		{Name: "numa_foreign", Class: Event},
		{Name: "local_node", Class: Event},
		{Name: "other_node", Class: Event},
	}
}

// PSSchema: process and scheduler statistics; loads are scaled by 100 to
// stay integral (the kernel exposes fixed-point loads too).
func PSSchema() Schema {
	return Schema{
		{Name: "load_1", Class: Gauge, Unit: "c"},
		{Name: "load_5", Class: Gauge, Unit: "c"},
		{Name: "load_15", Class: Gauge, Unit: "c"},
		{Name: "nr_running", Class: Gauge},
		{Name: "nr_threads", Class: Gauge},
		{Name: "processes", Class: Event},
		{Name: "ctxt", Class: Event},
	}
}

// TmpfsSchema: ram-backed filesystem usage per mount.
func TmpfsSchema() Schema {
	return Schema{
		{Name: "bytes_used", Class: Gauge, Unit: "B"},
		{Name: "files_used", Class: Gauge},
	}
}

// AMDPMCSchema: the four events TACC_Stats programs on Opteron (§3).
func AMDPMCSchema() Schema {
	return Schema{
		{Name: "FLOPS", Class: Event},
		{Name: "MEM_ACCESS", Class: Event},
		{Name: "DCACHE_FILLS", Class: Event},
		{Name: "NUMA_TRAFFIC", Class: Event},
	}
}

// IntelPMCSchema: the three events TACC_Stats programs on
// Nehalem/Westmere (§3).
func IntelPMCSchema() Schema {
	return Schema{
		{Name: "FLOPS", Class: Event},
		{Name: "NUMA_TRAFFIC", Class: Event},
		{Name: "L1D_HITS", Class: Event},
	}
}

// PMCBlock returns the stat type name and schema of the hardware
// counter block TACC_Stats programs on a microarchitecture (§3): the
// AMD block on Opteron, the Intel block on Nehalem and its successors.
func PMCBlock(arch cluster.Microarch) (string, Schema) {
	if arch == cluster.AMDOpteron {
		return TypeAMDPMC, AMDPMCSchema()
	}
	return TypeIntelPMC, IntelPMCSchema()
}

// PanasasSchema: per-mount Panasas (panfs) client counters; §3 lists
// Panasas among the filesystems TACC_Stats covers. None of the preset
// clusters mount it, but the collector is registered on any config that
// declares mounts in PanasasMounts.
func PanasasSchema() Schema {
	return Schema{
		{Name: "read_bytes", Class: Event, Unit: "B"},
		{Name: "write_bytes", Class: Event, Unit: "B"},
		{Name: "ops", Class: Event},
	}
}

// NewNodeSnapshot builds a Snapshot for one node of cfg with every stat
// type registered, devices created for each core, socket, mount and
// device, capacity gauges initialized (MemTotal per socket) and the
// node's architecture recorded.
func NewNodeSnapshot(cfg cluster.Config, hostname string) *Snapshot {
	s := NewSnapshot(hostname)
	s.Arch = cfg.Arch

	cpu := s.Register(TypeCPU, CPUSchema())
	for c := 0; c < cfg.CoresPerNode(); c++ {
		cpu.Values(fmt.Sprintf("%d", c))
	}

	mem := s.Register(TypeMem, MemSchema())
	perSocketKB := uint64(cfg.MemPerNodeGB * 1024 * 1024 / float64(cfg.SocketsPerNode))
	for so := 0; so < cfg.SocketsPerNode; so++ {
		dev := fmt.Sprintf("%d", so)
		mem.Values(dev)
		s.Set(TypeMem, dev, "MemTotal", perSocketKB)
		s.Set(TypeMem, dev, "MemFree", perSocketKB)
	}

	s.Register(TypeVM, VMSchema()).Values("-")

	net := s.Register(TypeNet, NetSchema())
	for _, d := range cfg.EthernetDevices {
		net.Values(d)
	}

	s.Register(TypeIB, IBSchema()).Values("mlx4_0.1")

	llite := s.Register(TypeLlite, LliteSchema())
	for _, m := range cfg.LustreMounts {
		llite.Values(m.Name)
	}

	s.Register(TypeLnet, LnetSchema()).Values("-")

	if cfg.HasNFS {
		s.Register(TypeNFS, NFSSchema()).Values("home")
	}

	if len(cfg.PanasasMounts) > 0 {
		panfs := s.Register(TypePanfs, PanasasSchema())
		for _, m := range cfg.PanasasMounts {
			panfs.Values(m)
		}
	}

	block := s.Register(TypeBlock, BlockSchema())
	for _, d := range cfg.BlockDevices {
		block.Values(d)
	}

	s.Register(TypeSysv, SysvSchema()).Values("-")
	s.Register(TypeIRQ, IRQSchema()).Values("-")

	numa := s.Register(TypeNUMA, NUMASchema())
	for so := 0; so < cfg.SocketsPerNode; so++ {
		numa.Values(fmt.Sprintf("%d", so))
	}

	s.Register(TypePS, PSSchema()).Values("-")
	s.Register(TypeTmpfs, TmpfsSchema()).Values("dev_shm")

	pmc := s.Register(PMCBlock(cfg.Arch))
	for c := 0; c < cfg.CoresPerNode(); c++ {
		pmc.Values(fmt.Sprintf("%d", c))
	}
	return s
}
