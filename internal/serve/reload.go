package serve

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"supremm/internal/store"
)

// The reload sequence (transition table: DESIGN.md §13.2). Everything
// the daemon does to, or learns from, its data directory is one trip of
//
//	scrub step → changed? → breaker gate → attempt loop → publish
//
// run by the directory's one owner, reloader, under its one mutex. A
// trip is a poll (all five steps) or forced (the last two), produces
// one record, and takes effect in one place, fold.

// tripOutcome is how one trip ended.
type tripOutcome int

const (
	tripUnchanged tripOutcome = iota // poll: the served snapshot's witness holds
	tripSkipped                      // poll: breaker open, one cooldown tick burnt, nothing read
	tripFailed                       // no snapshot came of it; the last-good one keeps serving
	tripPublished                    // the next generation is served, at full coverage
	tripDegraded                     // ... without the days that are quarantined and unrepaired
)

func (o tripOutcome) String() string {
	switch o {
	case tripUnchanged:
		return "unchanged"
	case tripSkipped:
		return "skipped"
	case tripFailed:
		return "failed"
	case tripPublished:
		return "published"
	default:
		return "degraded"
	}
}

// tripPhase is a step of the sequence whose duration a trip records.
type tripPhase int

const (
	phaseScrub        tripPhase = iota // the scrub step's pass of the cursor
	phaseBackoff                       // waiting before a retried attempt
	phaseFingerprint                   // the poll's re-stat of the served snapshot's witness
	phaseManifest                      // reading and decoding MANIFEST.supremm
	phaseShards                        // reading the changed shards, adopting the rest, healing
	phaseSeriesDecode                  // decoding series.jsonl
	phaseSeriesAdopt                   // sharing the previous generation's samples instead
	phaseRealm                         // building the realm over shards and series
	phaseQuality                       // reading quality.json
	phaseSwap                          // publishing the generation
	numPhases
)

var phaseNames = [numPhases]string{"scrub", "backoff", "fingerprint", "manifest", "shards", "series_decode",
	"series_adopt", "realm", "quality", "swap"}

// tripRing is how many trips /debug/reloads shows.
const tripRing = 16

// shardHeal is what one trip found wrong with one shard and did about
// it. quarantined and repaired each mean the custody record was
// appended, so their counts are QUARANTINE.supremm's.
type shardHeal struct {
	info  store.ShardInfo
	cause error
	// ahead: a well-formed shard of its day that the manifest does not
	// describe (store.ErrShardAhead) — a write in progress, not damage.
	// Nothing is moved or logged on its account.
	ahead       bool
	quarantined bool
	repaired    bool
}

// trip is the record of one pass through the sequence, by value.
type trip struct {
	seq      int64 // from 1: every trip the reloader began, recorded or not
	scrubbed int64 // shards the scrub step re-read
	sweeps   int   // full passes over the served set it completed

	// heals has every shard that failed its manifest entry, in either
	// step and across all attempts: a retry forgets nothing.
	heals []shardHeal

	attempts      int
	shards        store.ShardLoadStats // last attempt's: read from disk / shared with the previous generation
	seriesAdopted bool                 // series.jsonl kept its stamp: samples shared, not decoded

	outcome tripOutcome
	snap    *Snapshot // the generation this trip published, else nil
	err     error     // why it failed, else nil

	// forced: force's trip, not poll's. phases holds the time spent in
	// each phase, summed over attempts, and reached a bit per phase the
	// trip entered. The times come from the injected clock, read at the
	// phase boundaries from start on; without one they stay zero.
	forced  bool
	phases  [numPhases]time.Duration
	reached uint16
	start   time.Time
	mark    time.Time // where the phase being timed began
	// Bytes the phases read: the scrub step's shards, the manifest and
	// series.jsonl (decoded or adopted); the shards' are in shards.
	scrubBytes, manifestBytes, seriesBytes int64
}

// note appends one record per fault — its classification; the step that
// acts on it fills in the rest — and returns the new records.
func (t *trip) note(faults []store.ShardFault) []shardHeal {
	n := len(t.heals)
	for _, f := range faults {
		t.heals = append(t.heals, shardHeal{info: f.Info, cause: f.Err, ahead: errors.Is(f.Err, store.ErrShardAhead)})
	}
	return t.heals[n:]
}

// reloader owns the data directory on the daemon's side: nothing else
// reads it, renames in it or swaps the served snapshot. Queries never
// take its mutex.
type reloader struct {
	dir      string
	open     func(path string) (io.ReadCloser, error)
	retryMax int
	backoff  func(attempt int)
	// selfHeal is the policy for a shard that fails its manifest entry:
	// off, the attempt fails on it; on, damage is quarantined, repaired
	// or served as missing, and every poll looks for it within
	// scrubBudget bytes.
	selfHeal    bool
	scrubBudget int64
	clock       func() time.Time // Config.Now: dates custody records; may be nil

	// Where a trip is published. snap is also the sequence's memory: the
	// last published generation is what the next load adopts from, what
	// the scrubber walks and whose number the next one follows.
	snap      *atomic.Pointer[Snapshot]
	cacheSize int // entries each generation's response cache may hold
	met       *Metrics

	mu           sync.Mutex
	brk          *breaker
	scrubber     *store.Scrubber   // cursor over the served generation's shards; nil until its first step
	scrubEntries []store.ShardInfo // the scrubber's entries, which it walks from the first
	begun        int64             // trips begun so far

	// The last tripRing trips that attempted a load, failed or healed:
	// the n-th recorded (from 0) is trips[n%tripRing]; and for each
	// shard of the served generation the trip whose scrub step last
	// re-verified it. Their own mutex, so /debug/reloads and
	// /debug/shards answer while a load holds mu.
	tripsMu   sync.Mutex
	trips     [tripRing]tripDTO
	recorded  int64                     // trips recorded so far
	lastScrub map[store.ShardInfo]int64 // by manifest entry: a rewritten day starts unscrubbed
}

// poll is one tick of cmd/supremmd's ticker.
func (r *reloader) poll() trip {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.begin(false)
	if r.selfHeal {
		// Before the witness compare: a shard this step moves aside
		// moves its stamp, so rot found now is healed by this same trip.
		t.err = r.scrub(&t)
		r.lap(&t, phaseScrub)
	}
	switch {
	case t.err != nil:
		t.outcome = tripFailed
	case r.unchanged(&t):
		t.outcome = tripUnchanged
	case !r.brk.tick():
		t.outcome = tripSkipped
	default:
		r.load(&t)
	}
	r.fold(&t)
	return t
}

// force is the start-up load, POST /api/v1/reload and Server.Reload: no
// scrub step, no witness compare, no breaker gate — whoever asks
// wants the attempt and its error — but the same load and the same fold.
func (r *reloader) force() trip {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.begin(true)
	r.load(&t)
	r.fold(&t)
	return t
}

// begin starts a trip, numbered, at the clock's now when there is one.
func (r *reloader) begin(forced bool) trip {
	r.begun++
	t := trip{seq: r.begun, forced: forced}
	if r.clock != nil {
		t.start = r.clock()
		t.mark = t.start
	}
	return t
}

// lap ends phase p, which the trip has been in since t.mark, at the
// clock's now, and starts the next phase there. With no clock it reads
// none and only notes that p was reached.
func (r *reloader) lap(t *trip, p tripPhase) {
	t.reached |= 1 << p
	if r.clock == nil {
		return
	}
	now := r.clock()
	t.phases[p] += now.Sub(t.mark)
	t.mark = now
}

// unchanged reports whether every file the served snapshot read still
// carries the stamp it was read under.
func (r *reloader) unchanged(t *trip) bool {
	same := r.snap.Load().witness.holds(r.dir)
	r.lap(t, phaseFingerprint)
	return same
}

// fold is the one place a trip takes effect, failed trips and published
// ones alike.
func (r *reloader) fold(t *trip) {
	r.met.shardsScrubbed.Add(t.scrubbed)
	r.met.scrubSweeps.Add(int64(t.sweeps))
	for _, h := range t.heals {
		if h.quarantined {
			r.met.quarantines.Add(1)
		}
		if h.repaired {
			r.met.repairs.Add(1)
		}
	}
	switch t.outcome {
	case tripFailed:
		r.met.reloadErrors.Add(1)
		r.brk.onFailure()
	case tripPublished, tripDegraded:
		r.brk.onSuccess()
		r.scrubber = nil // the cursor follows the served generation
		if old := r.snap.Swap(t.snap); old != nil {
			r.met.reloads.Add(1)
		}
		r.lap(t, phaseSwap)
	}
	if t.attempts > 0 || t.outcome == tripFailed || len(t.heals) > 0 {
		r.record(t)
	}
}

// record puts t in the ring /debug/reloads shows.
func (r *reloader) record(t *trip) {
	var gen uint64 // none served yet: New's first trip failed
	if snap := r.snap.Load(); snap != nil {
		gen = snap.Gen
	}
	d := newTripDTO(t, gen)
	r.tripsMu.Lock()
	defer r.tripsMu.Unlock()
	r.trips[r.recorded%tripRing] = d
	r.recorded++
}

// recentTrips is the ring's trips, oldest first.
func (r *reloader) recentTrips() []tripDTO {
	r.tripsMu.Lock()
	defer r.tripsMu.Unlock()
	out := make([]tripDTO, 0, tripRing)
	for n := max(r.recorded-tripRing, 0); n < r.recorded; n++ {
		out = append(out, r.trips[n%tripRing])
	}
	return out
}

// lastScrubbed is the seq of the trip whose scrub step last re-verified
// the shard of entry e, 0 if none has.
func (r *reloader) lastScrubbed(e store.ShardInfo) int64 {
	r.tripsMu.Lock()
	defer r.tripsMu.Unlock()
	return r.lastScrub[e]
}

// scrub is the scrub step: one budget-limited pass of the cursor over
// the served generation's shards, re-reading bytes the witness cannot
// vouch for. Damage is moved aside; a shard ahead of its manifest
// is only noted — the load step meets it again and fails on it.
func (r *reloader) scrub(t *trip) error {
	if r.scrubber == nil {
		ss := r.snap.Load().shards
		entries := make([]store.ShardInfo, ss.NumShards())
		for i := range entries {
			entries[i] = ss.ShardAt(i).Info()
		}
		r.scrubber, r.scrubEntries = store.NewScrubber(r.dir, entries, r.open), entries
		r.tripsMu.Lock()
		kept := make(map[store.ShardInfo]int64, len(entries))
		for _, e := range entries {
			if seq, ok := r.lastScrub[e]; ok {
				kept[e] = seq
			}
		}
		r.lastScrub = kept
		r.tripsMu.Unlock()
	}
	before, beforeBytes := r.scrubber.Verified(), r.scrubber.VerifiedBytes()
	findings, sweeps := r.scrubber.Tick(r.scrubBudget)
	t.scrubbed, t.sweeps = r.scrubber.Verified()-before, sweeps
	t.scrubBytes = r.scrubber.VerifiedBytes() - beforeBytes
	if n := int64(len(r.scrubEntries)); n > 0 {
		// The cursor starts at the first entry and moves one per
		// verification, so this tick's began at before mod n.
		r.tripsMu.Lock()
		for k := before; k < before+t.scrubbed; k++ {
			r.lastScrub[r.scrubEntries[k%n]] = t.seq
		}
		r.tripsMu.Unlock()
	}
	heals := t.note(findings)
	for i := range heals {
		if heals[i].ahead {
			continue
		}
		if err := r.setAside(&heals[i]); err != nil {
			return err
		}
	}
	return nil
}

// now is the clock in unix seconds, 0 without one.
func (r *reloader) now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock().Unix()
}

// setAside takes one damaged shard out of service, the scrub step's and
// the load step's only way to. Failing to (the rename, the custody
// record) fails the trip: the log must not diverge from the directory.
func (r *reloader) setAside(h *shardHeal) (err error) {
	h.quarantined, err = store.QuarantineShard(r.dir, h.info, h.cause.Error(), r.now())
	return err
}

// load is the attempt loop: a load racing an ingest's rewrite fails
// transiently, so it is retried retryMax times with the injected
// backoff, as internal/ingest retries its reads.
func (r *reloader) load(t *trip) {
	prev := r.snap.Load()
	for t.attempts <= r.retryMax {
		if t.attempts > 0 && r.backoff != nil {
			r.backoff(t.attempts)
			r.lap(t, phaseBackoff)
		}
		t.attempts++
		if t.snap, t.err = r.attempt(t, prev); t.err == nil {
			t.outcome = tripPublished
			if t.snap.Coverage.Degraded {
				t.outcome = tripDegraded
			}
			return
		}
	}
	t.outcome, t.err = tripFailed, fmt.Errorf("serve: load %s: %w", r.dir, t.err)
}

// attempt reads the directory once into the generation after prev: the
// manifest, its shards, the series, quality.json.
func (r *reloader) attempt(t *trip, prev *Snapshot) (*Snapshot, error) {
	snap, err := r.read(t, prev)
	if err != nil {
		return nil, err
	}
	snap.witness.take(r.dir, store.QualityFile)
	snap.Quality, err = readQuality(r.dir, r.open)
	r.lap(t, phaseQuality)
	if err != nil {
		return nil, err
	}
	snap.Gen = 1
	if prev != nil {
		snap.Gen = prev.Gen + 1
	}
	snap.since = make(map[*store.Shard]uint64, snap.shards.NumShards())
	for i := range snap.shards.NumShards() {
		sh := snap.shards.ShardAt(i)
		snap.since[sh] = snap.Gen
		if prev != nil {
			if gen, ok := prev.since[sh]; ok {
				snap.since[sh] = gen // adopted: the same shard, first served then
			}
		}
	}
	snap.cache = newCache(r.cacheSize)
	return snap, nil
}

// read loads the directory into an unpublished snapshot — manifest, the
// shards it names, series.jsonl, the realm over them, each stamped into
// its witness first — leaving Gen and Quality to the attempt.
func (r *reloader) read(t *trip, prev *Snapshot) (*Snapshot, error) {
	snap := &Snapshot{witness: witness{}}
	snap.witness.take(r.dir, store.ManifestFile)
	entries, err := store.ReadManifest(r.dir, r.open)
	r.lap(t, phaseManifest)
	if err != nil {
		return nil, err
	}
	t.manifestBytes = store.ManifestSize(len(entries))
	snap.manifest = entries
	snap.shards, err = r.shards(t, snap, prev)
	r.lap(t, phaseShards)
	if err != nil {
		return nil, err
	}
	series, err := r.series(t, prev, snap)
	if err != nil {
		return nil, err
	}
	snap.Realm = newRealm(snap.shards, series)
	if t.seriesAdopted {
		snap.Realm.AdoptSeries(prev.Realm) // and what was computed from it
	}
	r.lap(t, phaseRealm)
	snap.Shards, snap.ShardsReused = snap.shards.NumShards(), t.shards.Reused
	snap.Coverage = coverageFrom(entries, snap.shards)
	return snap, nil
}

// shards loads the manifest's shards, adopting from prev what did not
// change (§14.2); days it could not serve are missing from the set.
// Under the strict policy there are none: the first fault fails the
// attempt. Under self-heal only a shard ahead of its manifest does.
// Adopted shards are stamped afresh too: adoption trusts a file of the
// manifest's size, and a same-size rewrite must fire one poll, not all.
func (r *reloader) shards(t *trip, snap, prev *Snapshot) (*store.ShardSet, error) {
	var adopt *store.ShardSet
	if prev != nil {
		adopt = prev.shards
	}
	for _, e := range snap.manifest {
		snap.witness.take(r.dir, store.ShardFileName(e.ID))
	}
	set, faults := store.LoadShardsDegraded(r.dir, snap.manifest, adopt, r.open)
	if len(faults) > 0 {
		if !r.selfHeal {
			return nil, faults[0].Err
		}
		repaired, err := r.heal(t, snap.witness, faults)
		if err != nil {
			return nil, err
		}
		if repaired {
			// The second pass decodes the repaired days and adopts the
			// rest from the first by pointer. What still faults is
			// served as missing — unless a writer got in between.
			set, faults = store.LoadShardsDegraded(r.dir, snap.manifest, set, r.open)
			for _, f := range faults {
				if errors.Is(f.Err, store.ErrShardAhead) {
					return nil, f.Err
				}
			}
		}
	}
	t.shards = set.LoadStats()
	return set, nil
}

// heal is the self-heal policy for the faults of one shard load. A
// shard ahead of its manifest means the manifest in hand does not
// describe the directory: the attempt fails before anything is touched,
// as over a torn manifest. Otherwise every fault is damage: moved aside
// (once — a day already aside is left there) and rebuilt from the
// monolithic backing when that reproduces the manifest's exact bytes. A
// repair that cannot be done is no error — the day is served as missing,
// the point of degraded serving — a custody record that cannot be
// written is, and so is any failure after a rebuilt shard landed: the
// record written before it is counted, then the attempt fails.
// The backing is stamped into w, absent too, so a backing that comes
// back fires the poll that repairs; so is each shard heal moves.
func (r *reloader) heal(t *trip, w witness, faults []store.ShardFault) (repaired bool, err error) {
	heals := t.note(faults)
	for _, h := range heals {
		if h.ahead {
			return false, h.cause
		}
	}
	w.take(r.dir, store.JobsColumnarFile)
	w.take(r.dir, store.JobsFile)
	backing, src, _ := store.LoadBackingStore(r.dir, r.open)
	for i := range heals {
		h, name := &heals[i], store.ShardFileName(heals[i].info.ID)
		if err := r.setAside(h); err != nil {
			return repaired, err
		}
		if h.quarantined {
			w[name] = fileStamp{} // moved aside
		}
		if backing == nil {
			continue
		}
		if h.repaired, err = store.RepairShard(r.dir, h.info, backing, src, r.now()); h.repaired {
			repaired = true
			w.take(r.dir, name)
		}
		if err != nil {
			return repaired, err
		}
	}
	return repaired, nil
}

// series reads series.jsonl through the open seam. Only a missing file
// means "no series"; any other failure fails the attempt, so an
// unreadable file cannot publish an empty time series. A file with the
// stamp the previous generation read it under is not read again: its
// samples are shared. Stamped before the open, a file renamed in between
// costs one more decode and poll, never old samples under a new stamp.
func (r *reloader) series(t *trip, prev, snap *Snapshot) ([]store.SystemSample, error) {
	st := snap.witness.take(r.dir, store.SeriesFile)
	t.seriesAdopted, t.seriesBytes = false, st.size
	sf, err := r.open(filepath.Join(r.dir, store.SeriesFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		r.lap(t, phaseSeriesDecode)
		return nil, err
	}
	defer sf.Close()
	if prev != nil && len(prev.Realm.Series) > 0 && st.present && st == prev.witness[store.SeriesFile] {
		t.seriesAdopted = true
		r.lap(t, phaseSeriesAdopt)
		return prev.Realm.Series, nil
	}
	samples, err := store.LoadSeries(sf)
	r.lap(t, phaseSeriesDecode)
	return samples, err
}
