package serve

import (
	"sort"
	"time"

	"supremm/internal/store"
)

// Self-healing shard serving (DESIGN.md §15).
//
// With Config.SelfHeal off (the zero value) the daemon treats its data
// directory as all-or-nothing: any damaged shard fails the reload, the
// breaker opens, and the last-good generation keeps serving. That is
// the right default for a directory whose files are supposed to be one
// consistent batch — but a facility-scale deployment holds years of
// day shards, and one rotted day must not hold 364 healthy days
// hostage behind an open breaker. With SelfHeal on the policy inverts:
//
//   - a background scrubber re-reads shard bytes on a byte budget per
//     poll tick and catches bit rot that the size+mtime fingerprint
//     can never see;
//   - a shard that fails verification is quarantined — moved aside to
//     shard-<day>.supremm.quarantined with a record appended to
//     QUARANTINE.supremm — and repair from the monolithic backing
//     (jobs.supremm, else jobs.jsonl) is attempted immediately,
//     accepted only if the rebuilt bytes match the manifest's size and
//     hash exactly;
//   - a reload that still has unserved days SUCCEEDS degraded: the
//     healthy shards are published with honest coverage accounting
//     (rows served / rows promised, missing day ranges) on /healthz,
//     /readyz, /metrics, and an X-Supremm-Coverage header on every
//     response, instead of tripping the breaker wholesale.
//
// The breaker still protects against total-directory damage (a corrupt
// manifest, an unreadable directory) — degraded loading only absorbs
// per-shard faults.

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

// fullCoverage is the Coverage of an undamaged load of rows rows.
func fullCoverage(rows int) Coverage {
	return Coverage{RowsServed: rows, RowsTotal: rows, Ratio: 1}
}

// coverageFrom computes Coverage for a degraded shard load: entries is
// the full manifest, faults the entries that could not be served.
func coverageFrom(entries []store.ShardInfo, faults []store.ShardFault) Coverage {
	cov := Coverage{}
	for _, e := range entries {
		cov.RowsTotal += e.Rows
	}
	cov.RowsServed = cov.RowsTotal
	days := make([]int64, 0, len(faults))
	for _, f := range faults {
		cov.RowsServed -= f.Info.Rows
		days = append(days, f.Info.ID)
	}
	if cov.RowsTotal > 0 {
		cov.Ratio = float64(cov.RowsServed) / float64(cov.RowsTotal)
	} else {
		cov.Ratio = 1
	}
	cov.Degraded = len(faults) > 0
	cov.MissingShards = len(faults)
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

// healLoad threads the self-heal policy and its outcome through one
// snapshot load attempt. loadStore fills entries and outcome; nil
// healLoad means strict loading.
type healLoad struct {
	now     int64 // caller's clock reading for quarantine records; 0 = clock-free
	entries []store.ShardInfo
	outcome healOutcome
}

// healOutcome is what one healing load did to the directory.
type healOutcome struct {
	// mutated: quarantine renames or repairs changed the directory —
	// the load's own fingerprint guard must adopt the post-heal
	// fingerprint instead of treating the change as a racing writer.
	mutated     bool
	quarantines int
	repairs     int
	// faults are the manifest entries still unserved after repair.
	faults []store.ShardFault
}

// healShardLoad loads a shard set with per-shard fault isolation,
// quarantining and repairing what it can:
//
//  1. degraded load — healthy shards in, faults out;
//  2. every fault not already quarantined is moved aside and recorded;
//  3. repair is attempted from the monolithic backing, accepted only
//     byte-identical to the manifest entry, and recorded;
//  4. if anything was repaired, a second degraded pass picks the
//     repaired shards up (healthy shards are adopted by pointer from
//     the first pass, so the extra pass costs only the repaired days).
//
// Heal bookkeeping failures (rename, log append) are real errors — the
// custody chain must not silently diverge from the directory — but a
// failed repair is not: the shard simply stays quarantined and the
// load stays degraded.
func healShardLoad(dir string, entries []store.ShardInfo, prev *store.ShardSet, open store.Opener, h *healLoad) (*store.ShardSet, error) {
	set, faults := store.LoadShardsDegraded(dir, entries, prev, open)
	if len(faults) == 0 {
		h.outcome.faults = nil
		return set, nil
	}
	var backing *store.Store
	var backingSrc string
	backingTried := false
	repaired := false
	for _, f := range faults {
		if !store.IsQuarantined(dir, f.Info.ID) {
			if err := store.QuarantineShard(dir, f.Info, f.Err.Error(), h.now); err != nil {
				return nil, err
			}
			h.outcome.quarantines++
			h.outcome.mutated = true
		}
		if !backingTried {
			backingTried = true
			// No usable backing is not an error: serving degraded is the
			// whole point when repair is impossible.
			backing, backingSrc, _ = store.LoadBackingStore(dir, open)
		}
		if backing == nil {
			continue
		}
		if err := store.RepairShard(dir, f.Info, backing); err != nil {
			continue // stays quarantined; still counted in faults
		}
		repaired = true
		h.outcome.repairs++
		h.outcome.mutated = true
		if err := store.AppendQuarantineEvent(dir, store.QuarantineEvent{
			Day: f.Info.ID, Action: store.ActionRepair, Reason: "rebuilt from " + backingSrc,
			At: h.now, Size: f.Info.Size, Hash: f.Info.Hash,
		}); err != nil {
			return nil, err
		}
	}
	if repaired {
		set, faults = store.LoadShardsDegraded(dir, entries, set, open)
	}
	h.outcome.faults = faults
	return set, nil
}

// scrubTick runs one budget-limited scrubber pass over the current
// snapshot's shards, quarantining any shard whose on-disk bytes no
// longer match the manifest. The quarantine rename changes the
// directory fingerprint, so the poll step that called us reloads —
// degraded or repaired — in the same tick. The scrubber cursor is
// rebuilt whenever the served generation changes, so it always walks
// the shard set actually being served (and never re-finds days already
// quarantined out of it). The caller holds reloadMu, which orders the
// renames against every load.
func (s *Server) scrubTick() {
	snap := s.snap.Load()
	ss := snap.shards
	if s.scrubber == nil || s.scrubGen != snap.Gen {
		entries := make([]store.ShardInfo, ss.NumShards())
		for i := range entries {
			entries[i] = ss.ShardAt(i).Info()
		}
		s.scrubber = store.NewScrubber(s.cfg.DataDir, entries, store.Opener(s.open))
		s.scrubGen = snap.Gen
	}
	before := s.scrubber.Verified()
	findings, sweeps := s.scrubber.Tick(s.scrubBudget)
	s.met.shardsScrubbed.Add(s.scrubber.Verified() - before)
	s.met.scrubSweeps.Add(int64(sweeps))
	for _, f := range findings {
		if store.IsQuarantined(s.cfg.DataDir, f.Info.ID) {
			continue
		}
		if err := store.QuarantineShard(s.cfg.DataDir, f.Info, f.Err.Error(), s.nowUnix()); err != nil {
			// The shard is damaged but could not be moved aside; the next
			// reload's degraded pass will fault it out anyway.
			continue
		}
		s.met.quarantines.Add(1)
	}
}

func (s *Server) nowUnix() int64 {
	if t := s.now(); !t.IsZero() {
		return t.Unix()
	}
	return 0
}
