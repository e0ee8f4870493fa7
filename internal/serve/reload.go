package serve

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	tripUnchanged tripOutcome = iota // poll: the served snapshot's fingerprint
	tripSkipped                      // poll: breaker open, one cooldown tick burnt, nothing read
	tripFailed                       // no snapshot came of it; the last-good one keeps serving
	tripPublished                    // the next generation is served, at full coverage
	tripDegraded                     // ... without the days that are quarantined and unrepaired
)

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

	mu       sync.Mutex
	brk      *breaker
	scrubber *store.Scrubber // cursor over the served generation's shards; nil until its first step
}

// poll is one tick of cmd/supremmd's ticker.
func (r *reloader) poll() trip {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t trip
	if r.selfHeal {
		// Before the fingerprint: a shard this step moves aside changes
		// it, so rot found now is healed by this same trip.
		t.err = r.scrub(&t)
	}
	switch {
	case t.err != nil:
		t.outcome = tripFailed
	case DirFingerprint(r.dir) == r.snap.Load().Fingerprint:
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
// scrub step, no fingerprint compare, no breaker gate — whoever asks
// wants the attempt and its error — but the same load and the same fold.
func (r *reloader) force() trip {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t trip
	r.load(&t)
	r.fold(&t)
	return t
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
	}
}

// scrub is the scrub step: one budget-limited pass of the cursor over
// the served generation's shards, re-reading bytes the fingerprint
// cannot vouch for. Damage is moved aside; a shard ahead of its manifest
// is only noted — the load step meets it again and fails on it.
func (r *reloader) scrub(t *trip) error {
	if r.scrubber == nil {
		ss := r.snap.Load().shards
		entries := make([]store.ShardInfo, ss.NumShards())
		for i := range entries {
			entries[i] = ss.ShardAt(i).Info()
		}
		r.scrubber = store.NewScrubber(r.dir, entries, r.open)
	}
	before := r.scrubber.Verified()
	findings, sweeps := r.scrubber.Tick(r.scrubBudget)
	t.scrubbed, t.sweeps = r.scrubber.Verified()-before, sweeps
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

// attempt reads the directory once into the generation after prev:
// stamp, read, quality, stamp again.
func (r *reloader) attempt(t *trip, prev *Snapshot) (*Snapshot, error) {
	fp, noted := DirFingerprint(r.dir), len(t.heals)
	snap, err := r.read(t, prev)
	if err != nil {
		return nil, err
	}
	if snap.Quality, err = LoadQuality(r.dir); err != nil {
		return nil, err
	}
	snap.Fingerprint = DirFingerprint(r.dir)
	ours := slices.ContainsFunc(t.heals[noted:], func(h shardHeal) bool { return h.quarantined || h.repaired })
	if snap.Fingerprint != fp && !ours {
		// Someone else changed the directory mid-load; what was read may
		// mix batches. When this attempt itself moved files the later
		// stamp is adopted, so the next poll does not fire on our own
		// renames; a racing writer's next file lands after it.
		return nil, fmt.Errorf("serve: %s changed during load", r.dir)
	}
	snap.Gen = 1
	if prev != nil {
		snap.Gen = prev.Gen + 1
	}
	snap.cache = newCache(r.cacheSize)
	return snap, nil
}

// read loads the directory into an unpublished snapshot — manifest, the
// shards it names, series.jsonl, the realm over them — leaving Gen,
// Quality and Fingerprint to the attempt. The manifest is the only way
// in: jobs.supremm and jobs.jsonl are repair backing, so a directory
// without a manifest is not a data directory, whatever else it holds.
func (r *reloader) read(t *trip, prev *Snapshot) (*Snapshot, error) {
	mf, err := r.open(filepath.Join(r.dir, store.ManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("serve: no %s (cmd/ingest writes it): %w", store.ManifestFile, err)
	}
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	mdata, err := io.ReadAll(mf)
	if err != nil {
		return nil, err
	}
	entries, err := store.DecodeManifest(mdata)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", store.ManifestFile, err)
	}
	snap := &Snapshot{}
	if snap.shards, err = r.shards(t, entries, prev); err != nil {
		return nil, err
	}
	series, err := r.series(t, prev, snap)
	if err != nil {
		return nil, err
	}
	snap.Realm = newRealm(snap.shards, series)
	snap.Shards, snap.ShardsReused = snap.shards.NumShards(), t.shards.Reused
	snap.Coverage = coverageFrom(entries, snap.shards)
	return snap, nil
}

// shards loads the manifest's shards, adopting from prev what did not
// change (§14.2); days it could not serve are missing from the set.
// Under the strict policy there are none: the first fault fails the
// attempt. Under self-heal only a shard ahead of its manifest does.
func (r *reloader) shards(t *trip, entries []store.ShardInfo, prev *Snapshot) (*store.ShardSet, error) {
	var adopt *store.ShardSet
	if prev != nil {
		adopt = prev.shards
	}
	set, faults := store.LoadShardsDegraded(r.dir, entries, adopt, r.open)
	if len(faults) > 0 {
		if !r.selfHeal {
			return nil, faults[0].Err
		}
		repaired, err := r.heal(t, faults)
		if err != nil {
			return nil, err
		}
		if repaired {
			// The second pass decodes the repaired days and adopts the
			// rest from the first by pointer. What still faults is
			// served as missing — unless a writer got in between.
			set, faults = store.LoadShardsDegraded(r.dir, entries, set, r.open)
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
// written is.
func (r *reloader) heal(t *trip, faults []store.ShardFault) (repaired bool, err error) {
	heals := t.note(faults)
	for _, h := range heals {
		if h.ahead {
			return false, h.cause
		}
	}
	backing, src, _ := store.LoadBackingStore(r.dir, r.open)
	for i := range heals {
		h := &heals[i]
		if err := r.setAside(h); err != nil {
			return repaired, err
		}
		if backing == nil || store.RepairShard(r.dir, h.info, backing) != nil {
			continue
		}
		repaired = true
		if err := store.AppendQuarantineEvent(r.dir, store.QuarantineEvent{
			Day: h.info.ID, Action: store.ActionRepair, Reason: "rebuilt from " + src,
			At: r.now(), Size: h.info.Size, Hash: h.info.Hash,
		}); err != nil {
			return repaired, err
		}
		h.repaired = true
	}
	return repaired, nil
}

// series reads series.jsonl through the open seam. Only a missing file
// means "no series"; any other failure fails the attempt, so an
// unreadable file cannot publish an empty time series. A file with the
// stamp (size and mtime, the witness the poll trusts) the previous
// generation decoded it under is not read again: its samples are
// shared. The attempt's second fingerprint catches a racing rewrite.
// The stamp read goes onto snap, the snapshot being built.
func (r *reloader) series(t *trip, prev, snap *Snapshot) ([]store.SystemSample, error) {
	path := filepath.Join(r.dir, "series.jsonl")
	t.seriesAdopted = false
	sf, err := r.open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	if st, err := os.Stat(path); err == nil {
		snap.seriesStamp = fmt.Sprint(st.Size(), st.ModTime().UnixNano())
	}
	if prev != nil && len(prev.Realm.Series) > 0 && snap.seriesStamp != "" && snap.seriesStamp == prev.seriesStamp {
		t.seriesAdopted = true
		return prev.Realm.Series, nil
	}
	return store.LoadSeries(sf)
}
