package serve

import (
	"sort"
	"time"

	"supremm/internal/store"
)

// Coverage accounting for degraded serving (DESIGN.md §15.4): under
// Config.SelfHeal a load whose damaged days could not be repaired still
// publishes the healthy ones (reload.go) — one rotted day must not hold
// years of healthy ones hostage — and every snapshot says how many of the
// rows its manifest promised it serves and which days are missing: on
// /healthz, /readyz, /metrics and in an X-Supremm-Coverage header.

// DayRange is an inclusive range of epoch days, as served in coverage
// bodies; From and To are UTC dates for operators, FromDay/ToDay the
// raw partition keys.
type DayRange struct {
	FromDay int64  `json:"from_day"`
	ToDay   int64  `json:"to_day"`
	From    string `json:"from"`
	To      string `json:"to"`
}

func dayDate(day int64) string {
	return time.Unix(day*store.SecondsPerDay, 0).UTC().Format("2006-01-02")
}

// Coverage is a snapshot's honesty accounting: how many of the rows
// the manifest promised are actually being served, and which days are
// missing. A fully-healthy load has Ratio 1 and no missing days.
type Coverage struct {
	RowsServed int     `json:"rows_served"`
	RowsTotal  int     `json:"rows_total"`
	Ratio      float64 `json:"ratio"`
	Degraded   bool    `json:"degraded"`
	// MissingShards counts manifest entries not being served;
	// MissingDays collapses them into contiguous day ranges.
	MissingShards int        `json:"missing_shards,omitempty"`
	MissingDays   []DayRange `json:"missing_days,omitempty"`
}

// coverageFrom computes a load's Coverage: entries is the full manifest,
// served the shards of it that loaded (all, for a healthy load).
func coverageFrom(entries []store.ShardInfo, served *store.ShardSet) Coverage {
	cov := Coverage{}
	var days []int64
	k := 0
	for _, e := range entries {
		cov.RowsTotal += e.Rows
		if k < served.NumShards() && served.ShardAt(k).ID() == e.ID {
			cov.RowsServed += e.Rows
			k++
		} else {
			days = append(days, e.ID)
		}
	}
	cov.Ratio = 1
	if cov.RowsTotal > 0 {
		cov.Ratio = float64(cov.RowsServed) / float64(cov.RowsTotal)
	}
	cov.Degraded = len(days) > 0
	cov.MissingShards = len(days)
	cov.MissingDays = collapseDays(days)
	return cov
}

// collapseDays turns a set of epoch days into sorted inclusive ranges.
func collapseDays(days []int64) []DayRange {
	if len(days) == 0 {
		return nil
	}
	sort.Slice(days, func(a, b int) bool { return days[a] < days[b] })
	var out []DayRange
	lo, hi := days[0], days[0]
	flush := func() {
		out = append(out, DayRange{FromDay: lo, ToDay: hi, From: dayDate(lo), To: dayDate(hi)})
	}
	for _, d := range days[1:] {
		if d == hi || d == hi+1 {
			hi = d
			continue
		}
		flush()
		lo, hi = d, d
	}
	flush()
	return out
}
