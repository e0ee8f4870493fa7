package core

import (
	"math"
	"sort"

	"supremm/internal/store"
)

// Profile is one radar chart: an entity's node-hour-weighted mean of
// each key metric divided by the fleet mean, so 1.0 on every axis is
// "the average job" and the chart of a typical user "would appear as a
// perfect octagon with each vertex at unity" (§4.3.1).
type Profile struct {
	Key       string // user name or app name
	Cluster   string
	N         int // jobs
	NodeHours float64
	// Normalized holds value/fleet-mean per metric; Raw the weighted
	// means themselves.
	Normalized map[store.Metric]float64
	Raw        map[store.Metric]float64
}

// MaxAxis returns the largest normalized value (radar chart scale).
func (p Profile) MaxAxis() float64 {
	max := 0.0
	for _, v := range p.Normalized {
		if v > max {
			max = v
		}
	}
	return max
}

// profileFor computes the profile of one sub-population against the
// realm's fleet means. f must pin the by column to a single value, so
// the group-by yields that one group (none when nothing matches): one
// selection and one pass give every metric's weighted mean, each the
// sum Aggregate(m, f) would form over the same rows in the same order.
func (r *Realm) profileFor(key string, by store.GroupKey, f store.Filter, metrics []store.Metric) Profile {
	p := Profile{
		Key:        key,
		Cluster:    r.Cluster,
		Normalized: make(map[store.Metric]float64, len(metrics)),
		Raw:        make(map[store.Metric]float64, len(metrics)),
	}
	groups := r.Store.GroupBy(by, metrics, f)
	if len(groups) > 0 {
		p.N, p.NodeHours = groups[0].N, groups[0].NodeHours
	}
	for _, m := range metrics {
		mean := math.NaN()
		if len(groups) > 0 {
			mean = groups[0].Mean[m]
		}
		p.Raw[m] = mean
		fleet := r.FleetMean(m)
		if fleet != 0 && !math.IsNaN(fleet) {
			p.Normalized[m] = mean / fleet
		} else {
			p.Normalized[m] = math.NaN()
		}
	}
	return p
}

// UserProfile computes one user's Fig 2-style profile over the eight
// key metrics.
func (r *Realm) UserProfile(user string) Profile {
	f := r.JobFilter()
	f.User = user
	return r.profileFor(user, store.ByUser, f, store.KeyMetrics())
}

// TopUserProfiles returns profiles of the n heaviest users by
// node-hours — Fig 2's "5 heavy users of Ranger".
func (r *Realm) TopUserProfiles(n int) []Profile {
	groups := r.Store.GroupBy(store.ByUser, nil, r.JobFilter())
	if n > len(groups) {
		n = len(groups)
	}
	out := make([]Profile, 0, n)
	for _, g := range groups[:n] {
		out = append(out, r.UserProfile(g.Key))
	}
	return out
}

// AppProfile computes one application's Fig 3-style profile.
func (r *Realm) AppProfile(app string) Profile {
	f := r.JobFilter()
	f.App = app
	return r.profileFor(app, store.ByApp, f, store.KeyMetrics())
}

// AppProfiles profiles a list of applications (e.g. the three MD codes
// of Fig 3).
func (r *Realm) AppProfiles(apps []string) []Profile {
	out := make([]Profile, 0, len(apps))
	for _, a := range apps {
		out = append(out, r.AppProfile(a))
	}
	return out
}

// ProfileDistance is the L2 distance between two profiles over their
// common metrics, used to quantify Fig 3's observation that "the NAMD
// usage pattern on Ranger and Lonestar4 is very similar whereas GROMACS
// and AMBER usage is different on the two clusters".
func ProfileDistance(a, b Profile) float64 {
	var ss float64
	n := 0
	for m, va := range a.Normalized {
		vb, ok := b.Normalized[m]
		if !ok || math.IsNaN(va) || math.IsNaN(vb) {
			continue
		}
		d := va - vb
		ss += d * d
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Sqrt(ss / float64(n))
}

// AnomalousUsers returns users whose normalized value of the metric
// exceeds the threshold, heaviest consumers first — the §4.3.3 support-
// staff report ("jobs or user with anomalous or inefficient resource
// use patterns"). minNodeHours excludes trivial users.
func (r *Realm) AnomalousUsers(m store.Metric, threshold, minNodeHours float64) []Profile {
	fleet := r.FleetMean(m)
	if fleet == 0 || math.IsNaN(fleet) {
		return nil
	}
	groups := r.Store.GroupBy(store.ByUser, []store.Metric{m}, r.JobFilter())
	var out []Profile
	for _, g := range groups {
		if g.NodeHours < minNodeHours {
			continue
		}
		if g.Mean[m]/fleet >= threshold {
			out = append(out, r.UserProfile(g.Key))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeHours > out[j].NodeHours })
	return out
}
