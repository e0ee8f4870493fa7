package core

import (
	"math"
	"sync"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/sim"
	"supremm/internal/store"
)

var (
	fixtureOnce sync.Once
	rangerRealm *Realm
	ls4Realm    *Realm
)

// realms builds two shared simulated realms (30 days, 128 nodes each).
// machineX is the machine of the small hand-built realms: 16 cores and
// 32 GB a node, a 100 TF peak.
var machineX = cluster.Config{Name: "x", Nodes: 6250, SocketsPerNode: 1, CoresPerSocket: 16,
	ClockGHz: 1, FlopsPerCycle: 1, MemPerNodeGB: 32}

func realms(t testing.TB) (*Realm, *Realm) {
	t.Helper()
	fixtureOnce.Do(func() {
		build := func(cc cluster.Config) *Realm {
			cfg := sim.DefaultConfig(cc, 2013)
			cfg.DurationMin = 30 * 24 * 60
			res, err := sim.Run(cfg)
			if err != nil {
				panic(err)
			}
			return NewRealm(cc, res.Store.AsSet(), res.Series)
		}
		rangerRealm = build(cluster.RangerConfig().Scaled(128))
		ls4Realm = build(cluster.Lonestar4Config().Scaled(128))
	})
	if rangerRealm == nil || ls4Realm == nil {
		t.Fatal("fixture build failed")
	}
	return rangerRealm, ls4Realm
}

func TestRealmBasics(t *testing.T) {
	r, _ := realms(t)
	if r.JobCount() < 100 {
		t.Fatalf("realm has only %d jobs", r.JobCount())
	}
	if r.TotalNodeHours() <= 0 {
		t.Fatal("no node-hours")
	}
	for _, m := range store.KeyMetrics() {
		v := r.FleetMean(m)
		if math.IsNaN(v) || v < 0 {
			t.Errorf("fleet mean of %s = %v", m, v)
		}
	}
}

func TestCorrelationMatrixReproducesSection42(t *testing.T) {
	// §4.2: cpu_user negatively correlated with cpu_idle; net_ib_rx
	// positively correlated with net_ib_tx.
	r, _ := realms(t)
	m := r.CorrelationMatrix(store.AllMetrics())
	userIdle := Correlation(m, store.MetricCPUUser, store.MetricCPUIdle)
	if !(userIdle < -0.8) {
		t.Errorf("corr(cpu_user, cpu_idle) = %v, want strongly negative", userIdle)
	}
	rxTx := Correlation(m, store.MetricIBRx, store.MetricIBTx)
	if !(rxTx > 0.8) {
		t.Errorf("corr(ib_rx, ib_tx) = %v, want strongly positive", rxTx)
	}
	if v := Correlation(m, store.Metric("nope"), store.MetricCPUIdle); !math.IsNaN(v) {
		t.Errorf("unknown pair = %v, want NaN", v)
	}
}

func TestSelectIndependentDropsRedundantMetrics(t *testing.T) {
	r, _ := realms(t)
	m := r.CorrelationMatrix(store.AllMetrics())
	// Candidates ordered with the paper's preferred metrics first.
	candidates := append(store.KeyMetrics(),
		store.MetricCPUUser, store.MetricIBRx, store.MetricCPUSys, store.MetricRead, store.MetricLnetTx)
	// The redundant mirror metrics sit at |rho| ~ 1.0 (cpu_user vs
	// cpu_idle, ib_rx vs ib_tx); related-but-distinct pairs like
	// mem_used vs mem_used_max stay below ~0.97, so the paper's
	// eight-metric set emerges at a 0.98 threshold.
	picked := SelectIndependent(m, candidates, 0.98)
	// The eight preferred metrics must survive...
	pickedSet := map[store.Metric]bool{}
	for _, p := range picked {
		pickedSet[p] = true
	}
	for _, want := range store.KeyMetrics() {
		if !pickedSet[want] {
			t.Errorf("key metric %s was dropped", want)
		}
	}
	// ...and their mirror images must not.
	if pickedSet[store.MetricCPUUser] {
		t.Error("cpu_user should be excluded (anti-correlated with cpu_idle)")
	}
	if pickedSet[store.MetricIBRx] {
		t.Error("net_ib_rx should be excluded (correlated with net_ib_tx)")
	}
	pairs := CorrelatedPairs(m, 0.98)
	if len(pairs) == 0 {
		t.Error("expected strongly correlated pairs in the full metric set")
	}
}

func TestTopUserProfiles(t *testing.T) {
	// Fig 2: profiles of 5 heavy users, normalized to fleet mean 1;
	// "note the variability in the usage profiles between users".
	r, _ := realms(t)
	profiles := r.TopUserProfiles(5)
	if len(profiles) != 5 {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for i, p := range profiles {
		if p.N == 0 || p.NodeHours <= 0 {
			t.Errorf("profile %d empty: %+v", i, p)
		}
		if len(p.Normalized) != 8 {
			t.Errorf("profile %s has %d metrics, want 8", p.Key, len(p.Normalized))
		}
		if i > 0 && p.NodeHours > profiles[i-1].NodeHours {
			t.Error("profiles not in node-hour order")
		}
	}
	// Variability: the five users should not have identical shapes.
	var dmax float64
	for i := range profiles {
		for j := i + 1; j < len(profiles); j++ {
			if d := ProfileDistance(profiles[i], profiles[j]); d > dmax {
				dmax = d
			}
		}
	}
	if dmax < 0.2 {
		t.Errorf("max pairwise profile distance = %v, want visible variability", dmax)
	}
}

func TestFleetProfileIsUnity(t *testing.T) {
	// A profile over ALL jobs must sit at 1.0 on every axis by
	// construction (the "perfect octagon").
	r, _ := realms(t)
	p := r.profileFor("fleet", store.ByCluster, r.JobFilter(), store.KeyMetrics())
	for m, v := range p.Normalized {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("fleet %s = %v, want 1.0", m, v)
		}
	}
	if p.MaxAxis() > 1.01 {
		t.Errorf("fleet max axis = %v", p.MaxAxis())
	}
}

func TestAppProfilesReproduceFig3(t *testing.T) {
	// AMBER idles more than NAMD and GROMACS on both clusters; NAMD's
	// profile is more similar across clusters than GROMACS's.
	ranger, ls4 := realms(t)
	for _, r := range []*Realm{ranger, ls4} {
		ps := r.AppProfiles([]string{"namd", "amber", "gromacs"})
		idle := func(i int) float64 { return ps[i].Normalized[store.MetricCPUIdle] }
		if !(idle(1) > idle(0) && idle(1) > idle(2)) {
			t.Errorf("%s: amber idle %v should exceed namd %v and gromacs %v",
				r.Cluster, idle(1), idle(0), idle(2))
		}
	}
	namdDist := ProfileDistance(ranger.AppProfile("namd"), ls4.AppProfile("namd"))
	gromacsDist := ProfileDistance(ranger.AppProfile("gromacs"), ls4.AppProfile("gromacs"))
	if namdDist >= gromacsDist {
		t.Errorf("NAMD cross-cluster distance %v should be below GROMACS %v", namdDist, gromacsDist)
	}
}

func TestEfficiencyReportReproducesFig4(t *testing.T) {
	ranger, ls4 := realms(t)
	// Fleet efficiency near the paper's 90%/85% marks, Ranger higher.
	re, le := ranger.FleetEfficiency(), ls4.FleetEfficiency()
	if re < 0.80 || re > 0.97 {
		t.Errorf("Ranger fleet efficiency = %v, want ~0.90", re)
	}
	if le < 0.72 || le > 0.93 {
		t.Errorf("LS4 fleet efficiency = %v, want ~0.85", le)
	}
	if le >= re {
		t.Errorf("LS4 efficiency (%v) should be below Ranger (%v)", le, re)
	}
	report := ranger.EfficiencyReport()
	if len(report) < 20 {
		t.Fatalf("only %d users in efficiency report", len(report))
	}
	var wasted, total float64
	for i, u := range report {
		if u.WastedNodeHours > u.NodeHours+1e-9 {
			t.Errorf("user %s wasted %v > total %v", u.User, u.WastedNodeHours, u.NodeHours)
		}
		if math.Abs(u.Efficiency()-(1-u.IdleFrac)) > 1e-12 {
			t.Errorf("efficiency identity broken for %s", u.User)
		}
		if i > 0 && u.NodeHours > report[i-1].NodeHours {
			t.Error("report not ordered by node-hours")
		}
		wasted += u.WastedNodeHours
		total += u.NodeHours
	}
	if math.Abs(WastedTotal(ranger.EfficiencyReport())-wasted) > 1e-6*wasted {
		t.Error("WastedTotal inconsistent with report")
	}
	// Per-user wasted/total must be consistent with the fleet number.
	if math.Abs(wasted/total-(1-re)) > 0.02 {
		t.Errorf("sum of user waste %v inconsistent with fleet idle %v", wasted/total, 1-re)
	}
}

func TestWorstUsersAreIdleOutliers(t *testing.T) {
	// Figs 4-5: the circled users idle far above the fleet (8x/5x the
	// average user in Fig 5), with otherwise unremarkable resource use.
	r, _ := realms(t)
	worst := r.WorstUsers(1, 50)
	if len(worst) != 1 {
		t.Fatal("no worst user found")
	}
	w := worst[0]
	fleetIdle := r.FleetMean(store.MetricCPUIdle)
	if w.IdleFrac < 3*fleetIdle {
		t.Errorf("worst user idle %v not an outlier vs fleet %v", w.IdleFrac, fleetIdle)
	}
	if w.IdleFrac < 0.5 {
		t.Errorf("worst user idle = %v, want > 0.5 (paper: 87-89%%)", w.IdleFrac)
	}
	// Fig 5: other metrics normal-to-light — nothing else extreme.
	p := r.UserProfile(w.User)
	for m, v := range p.Normalized {
		if m == store.MetricCPUIdle {
			continue
		}
		if v > 4 {
			t.Errorf("worst user %s = %v x fleet; Fig 5 expects normal usage elsewhere", m, v)
		}
	}
}

func TestAnomalousUsers(t *testing.T) {
	r, _ := realms(t)
	anomalous := r.AnomalousUsers(store.MetricCPUIdle, 3, 50)
	if len(anomalous) == 0 {
		t.Fatal("expected idle-anomalous users (the population plants them)")
	}
	fleet := r.FleetMean(store.MetricCPUIdle)
	for _, p := range anomalous {
		if p.Raw[store.MetricCPUIdle] < 3*fleet*0.99 {
			t.Errorf("user %s idle %v below threshold", p.Key, p.Raw[store.MetricCPUIdle])
		}
	}
	if got := r.AnomalousUsers(store.MetricCPUIdle, 3, 1e12); got != nil {
		t.Error("impossible node-hour floor should return none")
	}
}

func TestRankCorrelationConfirmsRedundancy(t *testing.T) {
	// The §4.2 conclusions must survive a robust (Spearman) re-analysis:
	// the mirror pairs stay extreme under rank correlation too.
	r, _ := realms(t)
	m := r.CorrelationMatrixRank(store.AllMetrics())
	if rho := Correlation(m, store.MetricCPUUser, store.MetricCPUIdle); rho > -0.9 {
		t.Errorf("rank corr(user, idle) = %v, want near -1", rho)
	}
	if rho := Correlation(m, store.MetricIBRx, store.MetricIBTx); rho < 0.9 {
		t.Errorf("rank corr(ib rx, tx) = %v, want near 1", rho)
	}
	// And the selected independent set stays below threshold pairwise.
	for _, a := range store.KeyMetrics() {
		for _, b := range store.KeyMetrics() {
			if a == b {
				continue
			}
			if rho := Correlation(m, a, b); !math.IsNaN(rho) && math.Abs(rho) > 0.995 {
				t.Errorf("key metrics %s~%s rank-correlated at %v", a, b, rho)
			}
		}
	}
}
