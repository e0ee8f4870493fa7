package core

import (
	"sort"

	"supremm/internal/store"
)

// UserEfficiency is one point of the Fig 4 scatter: a user's total
// node-hours against the node-hours "wasted" with the CPU idle.
type UserEfficiency struct {
	User string
	// NodeHours is the user's total consumption.
	NodeHours float64
	// WastedNodeHours is NodeHours * weighted idle fraction — "those
	// spent with an idle CPU".
	WastedNodeHours float64
	// IdleFrac is the node-hour-weighted CPU idle fraction.
	IdleFrac float64
	Jobs     int
}

// Efficiency returns 1 - IdleFrac, the paper's definition ("we define
// efficiency to be the percentage of time not spent in CPU idle").
func (u UserEfficiency) Efficiency() float64 { return 1 - u.IdleFrac }

// EfficiencyReport computes the Fig 4 scatter for every user, ordered
// by node-hours descending.
func (r *Realm) EfficiencyReport() []UserEfficiency {
	groups := r.Store.GroupBy(store.ByUser, []store.Metric{store.MetricCPUIdle}, r.JobFilter())
	out := make([]UserEfficiency, 0, len(groups))
	for _, g := range groups {
		idle := g.Mean[store.MetricCPUIdle]
		out = append(out, UserEfficiency{
			User:            g.Key,
			NodeHours:       g.NodeHours,
			WastedNodeHours: g.NodeHours * idle,
			IdleFrac:        idle,
			Jobs:            g.N,
		})
	}
	return out
}

// FleetEfficiency returns the node-hour-weighted efficiency over all
// jobs — the red line of Fig 4 (~90% on Ranger, ~85% on Lonestar4).
func (r *Realm) FleetEfficiency() float64 {
	return 1 - r.FleetMean(store.MetricCPUIdle)
}

// WorstUsers returns the most idle users above a node-hour floor — the
// circled users of Figs 4-5 (87% and 89% idle on the two machines).
func (r *Realm) WorstUsers(n int, minNodeHours float64) []UserEfficiency {
	return WorstOf(r.EfficiencyReport(), n, minNodeHours)
}

// WorstOf is WorstUsers over an EfficiencyReport the caller already
// holds, so a response showing the scatter, its total and its worst
// users pays for one group-by, not three.
func WorstOf(report []UserEfficiency, n int, minNodeHours float64) []UserEfficiency {
	var big []UserEfficiency
	for _, u := range report {
		if u.NodeHours >= minNodeHours {
			big = append(big, u)
		}
	}
	sort.Slice(big, func(i, j int) bool {
		if big[i].IdleFrac != big[j].IdleFrac {
			return big[i].IdleFrac > big[j].IdleFrac
		}
		return big[i].User < big[j].User
	})
	if n > len(big) {
		n = len(big)
	}
	return big[:n]
}

// WastedTotal sums the wasted node-hours of an EfficiencyReport.
func WastedTotal(report []UserEfficiency) float64 {
	var total float64
	for _, u := range report {
		total += u.WastedNodeHours
	}
	return total
}
