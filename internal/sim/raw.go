package sim

import (
	"fmt"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/sched"
	"supremm/internal/workload"
)

// ApplyUsage moves one node's counters by one interval of usage, dtMin
// minutes long (raw mode and cmd/taccstatsd). The node's shape — cores,
// sockets and their MemTotal, NICs, HCA ports, mounts, block devices
// and the PMC block — is read from snap, as procfs.NewNodeSnapshot
// built it. The mapping mirrors how a real kernel would account the
// same activity: scheduler centiseconds per core, gauges per socket,
// event bytes per device.
func ApplyUsage(snap *procfs.Snapshot, u workload.NodeUsage, dtMin float64) {
	cpus := snap.Type(procfs.TypeCPU).Devices()
	sockets := snap.Type(procfs.TypeMem).Devices()
	cores := len(cpus)
	dtCS := dtMin * 60 * 100 // centiseconds per core

	for _, dev := range cpus {
		snap.Add(procfs.TypeCPU, dev, "user", uint64(u.UserFrac*dtCS))
		snap.Add(procfs.TypeCPU, dev, "system", uint64(u.SysFrac*dtCS))
		snap.Add(procfs.TypeCPU, dev, "idle", uint64(u.IdleFrac*dtCS))
		snap.Add(procfs.TypeCPU, dev, "iowait", uint64(u.IowaitFrac*dtCS))
	}

	perSocketKB := u.MemUsedKB / uint64(len(sockets))
	for _, dev := range sockets {
		totalKB := snap.Get(procfs.TypeMem, dev, "MemTotal")
		snap.Set(procfs.TypeMem, dev, "MemUsed", perSocketKB)
		free := uint64(0)
		if totalKB > perSocketKB {
			free = totalKB - perSocketKB
		}
		snap.Set(procfs.TypeMem, dev, "MemFree", free)
		snap.Set(procfs.TypeMem, dev, "Cached", u.BuffCacheKB/uint64(len(sockets)))
		snap.Add(procfs.TypeNUMA, dev, "numa_hit", uint64(u.MemAccess/float64(len(sockets))/1000))
		snap.Add(procfs.TypeNUMA, dev, "numa_miss", uint64(u.NumaTraffic/float64(len(sockets))/10000))
	}

	snap.Add(procfs.TypeVM, "-", "pswpin", uint64(u.SwapIn))
	snap.Add(procfs.TypeVM, "-", "pswpout", uint64(u.SwapOut))
	snap.Add(procfs.TypeVM, "-", "pgpgin", uint64(u.PgPgInKB))
	snap.Add(procfs.TypeVM, "-", "pgpgout", uint64(u.PgPgOutKB))
	snap.Add(procfs.TypeVM, "-", "pgfault", uint64(u.PgFault))
	snap.Add(procfs.TypeVM, "-", "pgmajfault", uint64(u.PgMajFault))

	nics := snap.Type(procfs.TypeNet).Devices()
	for _, dev := range nics {
		snap.Add(procfs.TypeNet, dev, "tx_bytes", uint64(u.EthTxB/float64(len(nics))))
		snap.Add(procfs.TypeNet, dev, "rx_bytes", uint64(u.EthRxB/float64(len(nics))))
	}

	ports := snap.Type(procfs.TypeIB).Devices()
	for _, dev := range ports {
		txB, rxB := u.IBTxB/float64(len(ports)), u.IBRxB/float64(len(ports))
		snap.Add(procfs.TypeIB, dev, "tx_bytes", uint64(txB))
		snap.Add(procfs.TypeIB, dev, "rx_bytes", uint64(rxB))
		snap.Add(procfs.TypeIB, dev, "tx_packets", uint64(txB/2048))
		snap.Add(procfs.TypeIB, dev, "rx_packets", uint64(rxB/2048))
	}

	for _, mnt := range snap.Type(procfs.TypeLlite).Devices() {
		switch mnt {
		case "scratch":
			snap.Add(procfs.TypeLlite, mnt, "write_bytes", uint64(u.ScratchWriteB))
			snap.Add(procfs.TypeLlite, mnt, "read_bytes", uint64(u.ReadB))
		case "work":
			snap.Add(procfs.TypeLlite, mnt, "write_bytes", uint64(u.WorkWriteB))
		case "share":
			snap.Add(procfs.TypeLlite, mnt, "write_bytes", uint64(u.ShareWriteB))
		}
	}
	snap.Add(procfs.TypeLnet, "-", "tx_bytes", uint64(u.LnetTxB))
	snap.Add(procfs.TypeLnet, "-", "rx_bytes", uint64(u.LnetRxB))

	for _, dev := range snap.Type(procfs.TypeBlock).Devices() {
		snap.Add(procfs.TypeBlock, dev, "wr_sectors", uint64(u.BlockWrSectors))
		snap.Add(procfs.TypeBlock, dev, "rd_sectors", uint64(u.BlockRdSectors))
	}

	snap.Add(procfs.TypeIRQ, "-", "hw_irq", uint64((u.IBTxB+u.IBRxB)/16384))
	snap.Set(procfs.TypePS, "-", "load_1", uint64((1-u.IdleFrac)*float64(cores)*100))
	snap.Set(procfs.TypePS, "-", "nr_running", uint64((1-u.IdleFrac)*float64(cores)+1))
	snap.Add(procfs.TypePS, "-", "ctxt", uint64((1-u.IdleFrac)*float64(cores)*dtMin*60*2000))

	// MPI runtimes hold SysV shared-memory segments for intra-node
	// transport; the footprint tracks rank count.
	snap.Set(procfs.TypeSysv, "-", "mem_used", uint64((1-u.IdleFrac)*float64(cores))*32<<20)
	snap.Set(procfs.TypeSysv, "-", "segs_used", uint64((1-u.IdleFrac)*float64(cores))+1)
	snap.Set(procfs.TypeTmpfs, "dev_shm", "bytes_used", uint64((1-u.IdleFrac)*float64(cores))*16<<20)

	// Home directories ride NFS on clusters that mount it (LS4).
	if nfs := snap.Type(procfs.TypeNFS); nfs != nil {
		for _, mnt := range nfs.Devices() {
			snap.Add(procfs.TypeNFS, mnt, "write_bytes", uint64(u.WorkWriteB*0.1))
			snap.Add(procfs.TypeNFS, mnt, "read_bytes", uint64(u.ReadB*0.05))
			snap.Add(procfs.TypeNFS, mnt, "ops", uint64((u.WorkWriteB*0.1+u.ReadB*0.05)/32768))
		}
	}

	// Every event the chip's PMC block programs, split evenly over cores.
	pmcType, _ := procfs.PMCBlock(snap.Arch)
	pmc := snap.Type(pmcType)
	for _, dev := range pmc.Devices() {
		for _, k := range pmc.Schema {
			snap.Add(pmcType, dev, k.Name, uint64(pmcCount(u, k.Name)/float64(cores)))
		}
	}
}

// pmcCount is a node's count of one PMC event over an interval.
func pmcCount(u workload.NodeUsage, event string) float64 {
	switch event {
	case "FLOPS":
		return u.Flops
	case "MEM_ACCESS":
		return u.MemAccess
	case "DCACHE_FILLS":
		return u.CacheFills
	case "NUMA_TRAFFIC":
		return u.NumaTraffic
	case "L1D_HITS":
		return u.L1Hits
	}
	panic(fmt.Sprintf("sim: no usage drives PMC event %q", event))
}

// sampleMonitors ticks every up node's monitor at the step boundary,
// adding OS-background activity to idle nodes so their samples are not
// frozen.
func (e *engine) sampleMonitors(nowMin float64, running []*sched.RunningJob) {
	unix := e.cfg.EpochUnix + int64(nowMin*60)
	busy := make(map[int]bool)
	for _, rj := range running {
		for _, n := range rj.Nodes {
			busy[n.Index] = true
		}
	}
	dtCS := e.cfg.StepMin * 60 * 100
	for i, n := range e.clu.Nodes {
		if n.State == cluster.NodeDown { // down nodes do not report
			continue
		}
		snap := e.snaps[i]
		snap.Time = unix
		if !busy[i] {
			// Idle background: all cores idle, OS footprint only.
			for _, dev := range snap.Type(procfs.TypeCPU).Devices() {
				snap.Add(procfs.TypeCPU, dev, "idle", uint64(dtCS*0.998))
				snap.Add(procfs.TypeCPU, dev, "system", uint64(dtCS*0.002))
			}
			sockets := snap.Type(procfs.TypeMem).Devices()
			osKB := uint64(512 * 1024 / len(sockets))
			for _, dev := range sockets {
				snap.Set(procfs.TypeMem, dev, "MemUsed", osKB)
			}
		}
		// Errors are monitor-local (a full disk on one node does not
		// stop the cluster); they surface via missing data at ingest.
		_ = e.monitors[i].Sample()
	}
}
