package sarbaseline

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/procfs"
	"supremm/internal/store"
)

func sampleNode(t *testing.T) (*procfs.Snapshot, *Sampler, *bytes.Buffer, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	cc := cluster.RangerConfig()
	snap := procfs.NewNodeSnapshot(cc, "n0")
	snap.Time = 1000
	var cpuB, memB, netB bytes.Buffer
	return snap, NewSampler(&cpuB, &memB, &netB), &cpuB, &memB, &netB
}

func TestSamplerRoundTrip(t *testing.T) {
	snap, s, cpuB, memB, netB := sampleNode(t)
	// Prime.
	if err := s.Sample(snap); err != nil {
		t.Fatal(err)
	}
	// Advance 600s: 16 cores, 90% user / 10% idle split.
	for c := 0; c < 16; c++ {
		dev := string(rune('0' + c%10))
		_ = dev
	}
	for c := 0; c < 16; c++ {
		snap.Add(procfs.TypeCPU, itoa(c), "user", 54000)
		snap.Add(procfs.TypeCPU, itoa(c), "idle", 6000)
	}
	snap.Set(procfs.TypeMem, "0", "MemUsed", 2<<20)
	snap.Add(procfs.TypeNet, "eth0", "rx_bytes", 1024*600*10) // 10 KB/s
	snap.Time = 1600
	if err := s.Sample(snap); err != nil {
		t.Fatal(err)
	}

	cpu, err := ParseCPU(cpuB)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu) != 1 {
		t.Fatalf("cpu lines = %d (first interval must be discarded)", len(cpu))
	}
	if math.Abs(cpu[0].UserPct-90) > 0.1 || math.Abs(cpu[0].IdlePct-10) > 0.1 {
		t.Errorf("cpu split = %+v, want 90/10", cpu[0])
	}
	mem, err := ParseMem(memB)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != 2 {
		t.Fatalf("mem lines = %d (gauges report every sample)", len(mem))
	}
	if mem[1].UsedKB != 2<<20 {
		t.Errorf("mem used = %d", mem[1].UsedKB)
	}
	net, err := ParseNet(netB)
	if err != nil {
		t.Fatal(err)
	}
	if len(net) != 1 {
		t.Fatalf("net lines = %d", len(net))
	}
	if math.Abs(net[0].RxKBps-10) > 0.1 {
		t.Errorf("rx = %v KB/s, want 10", net[0].RxKBps)
	}
}

func itoa(c int) string {
	if c < 10 {
		return string(rune('0' + c))
	}
	return string(rune('0'+c/10)) + string(rune('0'+c%10))
}

func TestSamplerAggregatesAwayCoreResolution(t *testing.T) {
	// The key §1.2 deficiency: per-core imbalance is invisible. A node
	// with 8 pegged and 8 idle cores looks identical to one with all 16
	// at 50%.
	imbalanced, s1, cpu1, m1, n1 := sampleNode(t)
	_ = m1
	_ = n1
	s1.Sample(imbalanced)
	for c := 0; c < 8; c++ {
		imbalanced.Add(procfs.TypeCPU, itoa(c), "user", 60000)
	}
	for c := 8; c < 16; c++ {
		imbalanced.Add(procfs.TypeCPU, itoa(c), "idle", 60000)
	}
	imbalanced.Time = 1600
	s1.Sample(imbalanced)

	uniform, s2, cpu2, m2, n2 := sampleNode(t)
	_ = m2
	_ = n2
	s2.Sample(uniform)
	for c := 0; c < 16; c++ {
		uniform.Add(procfs.TypeCPU, itoa(c), "user", 30000)
		uniform.Add(procfs.TypeCPU, itoa(c), "idle", 30000)
	}
	uniform.Time = 1600
	s2.Sample(uniform)

	if cpu1.String() != cpu2.String() {
		t.Errorf("SAR should not distinguish imbalance:\n%s\nvs\n%s", cpu1, cpu2)
	}
}

func TestParserErrors(t *testing.T) {
	if _, err := ParseCPU(strings.NewReader("bad line\n")); err == nil {
		t.Error("malformed cpu should error")
	}
	if _, err := ParseCPU(strings.NewReader("X all 1 2 3 4\n")); err == nil {
		t.Error("bad cpu time should error")
	}
	if _, err := ParseCPU(strings.NewReader("100 all 1 2 x 4\n")); err == nil {
		t.Error("bad cpu value should error")
	}
	if _, err := ParseMem(strings.NewReader("junk\n")); err == nil {
		t.Error("malformed mem should error")
	}
	if _, err := ParseMem(strings.NewReader("X 1 2 3\n")); err == nil {
		t.Error("bad mem time should error")
	}
	if _, err := ParseMem(strings.NewReader("100 1 x 3\n")); err == nil {
		t.Error("bad mem value should error")
	}
	if _, err := ParseNet(strings.NewReader("nope\n")); err == nil {
		t.Error("malformed net should error")
	}
	if _, err := ParseNet(strings.NewReader("X eth0 1 2\n")); err == nil {
		t.Error("bad net time should error")
	}
	if _, err := ParseNet(strings.NewReader("100 eth0 x 2\n")); err == nil {
		t.Error("bad net rx should error")
	}
	if _, err := ParseNet(strings.NewReader("100 eth0 1 x\n")); err == nil {
		t.Error("bad net tx should error")
	}
	// Blank lines tolerated everywhere.
	if lines, err := ParseCPU(strings.NewReader("\n\n")); err != nil || len(lines) != 0 {
		t.Error("blank cpu stream should parse empty")
	}
}

func TestMetricCoverageIsTheHeadlineDeficiency(t *testing.T) {
	// SAR covers 2 of the 8 key metrics; the remaining 6 (and with
	// them Figs 2/3/5 radar axes, 9, 10, half of 12, most of Table 1)
	// cannot be produced at all.
	covered := CoveredMetrics()
	missing := MissingMetrics()
	if len(covered)+len(missing) != len(store.KeyMetrics()) {
		t.Fatalf("coverage split %d+%d != %d key metrics",
			len(covered), len(missing), len(store.KeyMetrics()))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]string{}, covered...), missing...) {
		if seen[m] {
			t.Errorf("metric %s double-counted", m)
		}
		seen[m] = true
	}
	for _, km := range store.KeyMetrics() {
		if !seen[string(km)] {
			t.Errorf("key metric %s unaccounted", km)
		}
	}
	for _, m := range missing {
		switch m {
		case "cpu_flops", "io_scratch_write", "io_work_write", "net_ib_tx", "net_lnet_tx", "mem_used_max":
		default:
			t.Errorf("unexpected missing metric %s", m)
		}
	}
}

// TestNetLinesInDeviceOrder: a node with two NICs writes its `sar -n`
// lines in the snapshot's device order at every sample, so one node-day
// always yields the same stream.
func TestNetLinesInDeviceOrder(t *testing.T) {
	cc := cluster.Lonestar4Config()
	snap := procfs.NewNodeSnapshot(cc, "n0")
	snap.Time = 1000
	var cpuB, memB, netB bytes.Buffer
	s := NewSampler(&cpuB, &memB, &netB)
	for i := 0; i <= 144; i++ {
		for _, dev := range cc.EthernetDevices {
			snap.Add(procfs.TypeNet, dev, "rx_bytes", 1<<20)
		}
		if err := s.Sample(snap); err != nil {
			t.Fatal(err)
		}
		snap.Time += 600
	}
	lines, err := ParseNet(&netB)
	if err != nil {
		t.Fatal(err)
	}
	if want := 144 * len(cc.EthernetDevices); len(lines) != want {
		t.Fatalf("net lines = %d, want %d", len(lines), want)
	}
	for i, l := range lines {
		if want := cc.EthernetDevices[i%len(cc.EthernetDevices)]; l.Device != want {
			t.Fatalf("net line %d (time %d) is %s, want %s: lines follow map order", i, l.Time, l.Device, want)
		}
	}
}
