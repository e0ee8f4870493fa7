package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"supremm/internal/leakcheck"
	"supremm/internal/reference"
	"supremm/internal/store"
)

// TestReloadModel proves the transition table of DESIGN.md §13.2 against
// the code that implements it (reload.go). Each seed is one
// single-goroutine schedule of polls, forced reloads and everything a
// data directory goes through — whole appends of a new day and of late
// rows into an old one (store.WriteShardDir's content-skip path), an
// append stopped before its manifest and later finished, silent bit
// rot, torn shards, a torn manifest, the repair backing removed and
// restored, a transient read error, atomic heals. Three things run side
// by side: the daemon; a reference model of the trip table (refModel,
// written from the table, not from the code); and world, which knows
// what the schedule did to the directory and so what every step of a
// trip must find there. After every step the daemon has to agree with
// both, and its answers with a naive per-row loop over exactly the rows
// it claims to serve.
//
// The row names below are the table's; a row no seed reaches fails the
// test.
var tableRows = []string{
	"T1 closed · poll, unchanged",
	"T2 closed · poll, load succeeds",
	"T3 closed · poll, load fails below the threshold",
	"T4 closed · poll, load fails at the threshold",
	"T5 open · poll, unchanged",
	"T6 open · poll, cooling down",
	"T7 open · poll, probe succeeds",
	"T8 open · poll, probe fails",
	"T9 closed · force, load succeeds",
	"T10 closed · force, load fails",
	"T11 open · force, load succeeds",
	"T12 open · force, load fails",
	"S1 damaged · scrub step",
	"S2 damaged · load step",
	"S3 already aside · either step",
	"S4 aside · repair verifies",
	"S5 aside · no backing that reproduces the bytes",
	"S6 ahead of the manifest · scrub step",
	"S7 ahead of the manifest · load step",
	"S8 any fault · strict policy",
}

// rowCoverage counts, across seeds, how often each table row was taken.
type rowCoverage struct {
	mu   sync.Mutex
	hits map[string]int
}

func (c *rowCoverage) hit(row string) {
	c.mu.Lock()
	c.hits[row]++
	c.mu.Unlock()
}

func TestReloadModel(t *testing.T) {
	seeds, steps := 50, 200
	if testing.Short() {
		seeds = 5
	}
	cov := &rowCoverage{hits: make(map[string]int)}
	var ran atomic.Int64 // seeds -run let through
	t.Run("seeds", func(t *testing.T) {
		// Each seed is its own single-goroutine schedule, and most of its
		// wall time is the real writer's fsyncs: sixteen run side by side,
		// whatever GOMAXPROCS is (t.Parallel would cap them at it).
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := next.Add(1); seed <= int64(seeds); seed = next.Add(1) {
					t.Run(fmt.Sprint(seed), func(t *testing.T) {
						ran.Add(1)
						runReloadModel(t, seed, steps, cov)
					})
				}
			}()
		}
		wg.Wait()
	})
	var report strings.Builder
	unreached := 0
	for _, row := range tableRows {
		fmt.Fprintf(&report, "\n  %6d  %s", cov.hits[row], row)
		if cov.hits[row] == 0 {
			unreached++
		}
		delete(cov.hits, row)
	}
	t.Logf("%d seeds x %d steps, table rows taken:%s", seeds, steps, report.String())
	for row := range cov.hits {
		t.Errorf("the schedule took %q, which is not a row of the table", row)
	}
	if unreached > 0 && !testing.Short() && ran.Load() == int64(seeds) {
		t.Errorf("%d table rows were never reached", unreached)
	}
}

// refModel is the trip half of the table: breaker state × (trigger,
// changed?, load result) → outcome and next state. Half-open has no
// field: it lives inside one call of trip.
type refModel struct {
	threshold, backoff0 int

	gen                         uint64
	open                        bool
	failures, cooldown, backoff int
	opens, skipped              int64
}

// trip runs one row. load is consulted only when the row loads.
func (m *refModel) trip(forced, changed bool, load func() (ok, degraded bool)) (tripOutcome, string) {
	state, probe := "closed", false
	if m.open {
		state = "open"
	}
	if !forced {
		if !changed {
			return tripUnchanged, map[bool]string{false: "T1", true: "T5"}[m.open] + " " + state + " · poll, unchanged"
		}
		if m.open {
			if m.cooldown--; m.cooldown > 0 {
				m.skipped++
				return tripSkipped, "T6 open · poll, cooling down"
			}
			probe = true
		}
	}
	if ok, degraded := load(); ok {
		m.gen++
		m.open, m.failures, m.cooldown, m.backoff = false, 0, 0, 0
		row := map[[2]bool]string{
			{false, false}: "T2 closed · poll, load succeeds", {false, true}: "T7 open · poll, probe succeeds",
			{true, false}: "T9 closed · force, load succeeds", {true, true}: "T11 open · force, load succeeds",
		}[[2]bool{forced, state == "open"}]
		if degraded {
			return tripDegraded, row
		}
		return tripPublished, row
	}
	m.failures++
	switch {
	case probe:
		m.backoff = min(2*m.backoff, maxBreakerBackoff)
		m.cooldown = m.backoff
		m.opens++
		return tripFailed, "T8 open · poll, probe fails"
	case m.open:
		m.cooldown = m.backoff // restarted, not doubled
		return tripFailed, "T12 open · force, load fails"
	case m.failures >= m.threshold:
		m.open, m.backoff, m.cooldown = true, m.backoff0, m.backoff0
		m.opens++
		if forced {
			return tripFailed, "T10 closed · force, load fails"
		}
		return tripFailed, "T4 closed · poll, load fails at the threshold"
	case forced:
		return tripFailed, "T10 closed · force, load fails"
	}
	return tripFailed, "T3 closed · poll, load fails below the threshold"
}

// ---- the corpus ----

// A batch is the set of rows one ingest run wrote: day → how many rows
// end on it. Day d's rows are modelRow(d, 0..n-1), so late rows into an
// existing day are n+1, a day's shard bytes are a function of (d, n),
// and more rows are always more bytes.
type batch map[int64]int

func (b batch) clone() batch {
	out := make(batch, len(b))
	for d, n := range b {
		out[d] = n
	}
	return out
}

func (b batch) days() []int64 {
	out := make([]int64, 0, len(b))
	for d := range b {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func modelRow(day int64, j int) store.JobRecord {
	i := int(day)*7 + j*3
	r := store.JobRecord{
		JobID:   day*1000 + int64(j),
		Cluster: "ranger",
		User:    fmt.Sprintf("u%02d", i%5),
		App:     []string{"namd", "amber", "gromacs", "wrf"}[i%4],
		Science: []string{"Chemistry", "Physics"}[i%2],
		Nodes:   1 + i%16,
		Status:  "completed",
		Samples: i % 4, // every fourth job is too short for the analysis population
	}
	r.End = day*store.SecondsPerDay + 3600 + 60*int64(j)
	r.Start = r.End - 1800 - 60*int64(i%7)
	r.Submit = r.Start - 120
	r.CPUIdleFrac = float64(i%10) / 10
	r.MemUsedGB = float64(i%13) + 0.1*float64(j)
	r.FlopsGF = 1.5 * float64(i%9)
	return r
}

// rows are b's rows in day order, each day's in row order.
func (b batch) rows() []store.JobRecord {
	var out []store.JobRecord
	for _, d := range b.days() {
		for j := 0; j < b[d]; j++ {
			out = append(out, modelRow(d, j))
		}
	}
	return out
}

func (b batch) store() *store.Store {
	st := store.New()
	for _, r := range b.rows() {
		st.Add(r)
	}
	return st
}

// shardBytes is day d's shard file holding n rows, with its manifest
// entry; callers must not write to the bytes (the seeds share them).
func shardBytes(d int64, n int) ([]byte, store.ShardInfo) {
	type shard struct {
		data []byte
		info store.ShardInfo
	}
	key := [2]int64{d, int64(n)}
	if sh, ok := shardMemo.Load(key); ok {
		return sh.(shard).data, sh.(shard).info
	}
	st := batch{d: n}.store()
	data := store.EncodeColumns(st.Columns())
	info := store.ShardInfo{
		ID: d, Rows: n, MinEnd: modelRow(d, 0).End, MaxEnd: modelRow(d, n-1).End,
		Size: int64(len(data)), Hash: crc32.ChecksumIEEE(data),
	}
	shardMemo.Store(key, shard{data, info})
	return data, info
}

var shardMemo sync.Map

func (b batch) manifest() []byte {
	var entries []store.ShardInfo
	for _, d := range b.days() {
		_, e := shardBytes(d, b[d])
		entries = append(entries, e)
	}
	return store.EncodeManifest(entries)
}

// modelTargets are the data queries held to the naive reference
// (internal/reference, over the batch's day shards) after every step: a
// whole-realm aggregate, a filtered one, and a group-by with its fleet
// means.
var modelTargets = []string{
	"/api/v1/aggregate?metric=cpu_idle",
	"/api/v1/aggregate?metric=mem_used&user=u02",
	"/api/v1/query?group=user&metrics=cpu_idle,cpu_flops&limit=3",
}

// naiveBodies renders what modelTargets must answer over exactly the
// rows of b.
func naiveBodies(t *testing.T, b batch) [][]byte {
	t.Helper()
	parts := reference.ByEndDay(b.rows())
	out := make([][]byte, len(modelTargets))
	for i, target := range modelTargets {
		out[i] = referenceBody(t, parts, target)
	}
	return out
}

// ---- the world: what the schedule has done to the directory ----

// shardFile is what sits under a day's shard name: the writer's n-row
// shard, or (bad != nil) that shard damaged in place. rot is damage
// that kept size and mtime. n == 0 means no file.
type shardFile struct {
	n   int
	bad []byte
	rot bool
}

type healWant struct {
	day                          int64
	ahead, quarantined, repaired bool
}

type world struct {
	t        *testing.T
	rng      *rand.Rand
	dir      string
	selfHeal bool
	cov      *rowCoverage

	cur          batch // the batch the manifest on disk describes
	pend         batch // a later batch landed except for its manifest, or nil
	backed       batch // the batch jobs.supremm holds (when present)
	backing      bool
	tornManifest []byte
	file         map[int64]shardFile
	aside        map[int64][]byte // quarantined copies
	transient    int              // manifest opens that will fail
	armed        atomic.Int64     // the same, as the open seam sees it

	// stamp is the fingerprint as the world keeps it: per fingerprinted
	// file, the number of the write that last landed it (absent: no
	// entry). Silent rot, by definition, does not move it.
	stamp       map[string]int64
	servedStamp map[string]int64 // stamp, when the served snapshot was loaded
	served      batch            // what the daemon serves
	servedFrom  batch            // the manifest that snapshot was loaded from
	bodies      [][]byte

	tick     int64                  // logical mtime clock of the schedule's own writes
	listing  map[string]os.FileInfo // as of the end of the last step
	checked  map[string]checkedFile
	cleanedQ int64 // custody records a writer's cleanup has removed
	cleanedR int64
}

func (w *world) path(name string) string { return filepath.Join(w.dir, name) }

// touch records that name was (re)written, gone that it was renamed or
// removed; dirty is the poll's "changed?".
func (w *world) touch(name string) { w.tick++; w.stamp[name] = w.tick }
func (w *world) gone(name string)  { delete(w.stamp, name) }
func (w *world) dirty() bool       { return !reflect.DeepEqual(w.stamp, w.servedStamp) }

// write lands data under name the way the writers do, minus the fsyncs.
func (w *world) write(name string, data []byte) {
	w.t.Helper()
	tmp := w.path("." + name + ".model")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		w.t.Fatal(err)
	}
	if err := os.Rename(tmp, w.path(name)); err != nil {
		w.t.Fatal(err)
	}
	w.touch(name)
}

func (w *world) list() map[string]os.FileInfo {
	w.t.Helper()
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		w.t.Fatal(err)
	}
	out := make(map[string]os.FileInfo, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			w.t.Fatal(err)
		}
		out[e.Name()] = info
	}
	return out
}

// settle ends a step of the schedule: every file the step wrote gets the
// next tick of a logical clock as its mtime, so no two writes of the
// schedule can share a fingerprint stamp however coarse the filesystem's
// own clock is. Files the daemon wrote keep their stamps (it has adopted
// them), and rot has put its victim's stamp back already.
func (w *world) settle(bless bool) {
	now := w.list()
	for name, info := range now {
		old, ok := w.listing[name]
		if bless && (!ok || old.Size() != info.Size() || !old.ModTime().Equal(info.ModTime()) || !os.SameFile(old, info)) {
			w.tick++
			at := time.Unix(1_000_000_000+w.tick, 0)
			if err := os.Chtimes(w.path(name), at, at); err != nil {
				w.t.Fatal(err)
			}
		}
	}
	if bless {
		now = w.list()
	}
	w.listing = now
}

func (w *world) writeBacking(b batch) {
	var bin bytes.Buffer
	if err := b.store().SaveBinary(&bin); err != nil {
		w.t.Fatal(err)
	}
	w.write("jobs.supremm", bin.Bytes())
	w.backed, w.backing = b, true
}

// land is a whole ingest run of batch b: monoliths, then
// store.WriteShardDir — shards it finds holding other bytes, the
// manifest, and the cleanup that supersedes all healing state.
func (w *world) land(b batch) {
	w.writeBacking(b)
	q, r := custodyCounts(w.t, w.dir)
	w.cleanedQ, w.cleanedR = w.cleanedQ+q, w.cleanedR+r
	if err := store.WriteShardDir(w.dir, b.store()); err != nil {
		w.t.Fatal(err)
	}
	for d, n := range b {
		if f := w.file[d]; f.n != n || f.bad != nil { // else content-skipped
			w.touch(store.ShardFileName(d))
		}
	}
	w.touch(store.ManifestFile)
	w.cur, w.pend, w.tornManifest = b, nil, nil
	w.file, w.aside = map[int64]shardFile{}, map[int64][]byte{}
	for d, n := range b {
		w.file[d] = shardFile{n: n}
	}
}

// landAllButManifest is the same run stopped before its last file.
func (w *world) landAllButManifest(b batch) {
	w.writeBacking(b)
	for d, n := range b {
		if f := w.file[d]; f.n == n && f.bad == nil {
			continue // the content-skip: the file holds these bytes already
		}
		data, _ := shardBytes(d, n)
		w.write(store.ShardFileName(d), data)
		w.file[d] = shardFile{n: n}
	}
	w.pend = b
}

// latest is the newest batch any run has started to write.
func (w *world) latest() batch {
	if w.pend != nil {
		return w.pend
	}
	return w.cur
}

// grow returns latest plus one late row into a random day and/or one
// new day.
func (w *world) grow(lateRows, newDay bool) batch {
	b := w.latest().clone()
	days := b.days()
	if lateRows {
		b[days[w.rng.Intn(len(days))]]++
	}
	if newDay && len(days) < 6 { // the scrub step re-reads every shard on every poll
		b[days[len(days)-1]+1] = 3 + w.rng.Intn(3)
	} else if !lateRows {
		b[days[len(days)-1]]++
	}
	return b
}

// mutate performs one random change to the directory whose precondition
// holds, and reports what it was.
func (w *world) mutate() string {
	var present, clean []int64
	for _, d := range w.cur.days() {
		if f := w.file[d]; f.n > 0 {
			present = append(present, d)
			if f.bad == nil {
				clean = append(clean, d)
			}
		}
	}
	for {
		// Whole landings are the dear ones (fsyncs), so the cheap faults
		// get the larger share of the draw.
		switch []int{0, 1, 2, 2, 3, 3, 4, 4, 4, 6, 6, 7, 8, 8, 9, 10, 10}[w.rng.Intn(17)] {
		case 0:
			w.land(w.grow(false, true))
			return "append a new day"
		case 1:
			w.land(w.grow(true, w.rng.Intn(2) == 0))
			return "append late rows into an old day"
		case 2:
			if w.pend == nil {
				w.landAllButManifest(w.grow(true, w.rng.Intn(2) == 0))
				return "append late rows, stopped before the manifest"
			}
		case 3:
			if w.pend != nil {
				w.land(w.pend)
				return "finish the stopped append"
			}
		case 4:
			if len(clean) > 0 {
				d := clean[w.rng.Intn(len(clean))]
				f := w.file[d]
				whole, _ := shardBytes(d, f.n)
				f.bad = append([]byte(nil), whole...)
				f.bad[w.rng.Intn(len(f.bad))] ^= byte(1 + w.rng.Intn(255))
				f.rot = true
				info := w.listing[store.ShardFileName(d)]
				if err := os.WriteFile(w.path(store.ShardFileName(d)), f.bad, 0o644); err != nil {
					w.t.Fatal(err)
				}
				if err := os.Chtimes(w.path(store.ShardFileName(d)), info.ModTime(), info.ModTime()); err != nil {
					w.t.Fatal(err)
				}
				w.file[d] = f
				return fmt.Sprintf("rot day %d silently", d)
			}
		case 6:
			if len(present) > 0 {
				d := present[w.rng.Intn(len(present))]
				f := w.file[d]
				whole, _ := shardBytes(d, f.n)
				f.bad, f.rot = whole[:w.rng.Intn(len(whole))], false
				if err := os.WriteFile(w.path(store.ShardFileName(d)), f.bad, 0o644); err != nil {
					w.t.Fatal(err)
				}
				w.file[d] = f
				w.touch(store.ShardFileName(d))
				return fmt.Sprintf("tear day %d", d)
			}
		case 7:
			if w.tornManifest == nil {
				whole := w.cur.manifest()
				w.tornManifest = whole[:w.rng.Intn(len(whole))]
				if err := os.WriteFile(w.path(store.ManifestFile), w.tornManifest, 0o644); err != nil {
					w.t.Fatal(err)
				}
				w.touch(store.ManifestFile)
				return "tear the manifest"
			}
		case 8:
			if w.backing {
				if err := os.Remove(w.path("jobs.supremm")); err != nil {
					w.t.Fatal(err)
				}
				w.backing = false
				w.gone("jobs.supremm")
				return "remove the repair backing"
			}
			w.writeBacking(w.backed)
			return "restore the repair backing"
		case 9:
			w.land(w.latest())
			return "heal: the newest batch lands again, whole"
		case 10:
			if w.transient == 0 {
				w.transient = 1 + w.rng.Intn(2)
				w.armed.Store(int64(w.transient))
				return fmt.Sprintf("arm %d transient manifest read errors", w.transient)
			}
		}
	}
}

// open is the daemon's Config.Open: the armed manifest reads fail.
func (w *world) open(path string) (io.ReadCloser, error) {
	if filepath.Base(path) == store.ManifestFile && w.armed.Load() > 0 {
		w.armed.Add(-1)
		return nil, errors.New("injected: transient manifest read error")
	}
	return os.Open(path)
}

// wantScrub is what the scrub step must find and do: it walks the served
// shards, oldest day first, against the entries they were loaded under.
func (w *world) wantScrub() (heals []healWant) {
	for _, d := range w.served.days() {
		f := w.file[d]
		switch {
		case f.n == 0 || f.bad != nil: // damaged, or gone aside already
			h := healWant{day: d}
			if _, aside := w.aside[d]; !aside {
				w.cov.hit("S1 damaged · scrub step")
				h.quarantined = true
				w.aside[d], w.file[d] = f.bad, shardFile{}
				w.gone(store.ShardFileName(d))
			} else {
				w.cov.hit("S3 already aside · either step")
			}
			heals = append(heals, h)
		case f.n != w.served[d]:
			w.cov.hit("S6 ahead of the manifest · scrub step")
			heals = append(heals, healWant{day: d, ahead: true})
		}
	}
	return heals
}

// wantLoad is what one load attempt must find, do and end as.
func (w *world) wantLoad() (heals []healWant, adopted, decoded int, ok, degraded bool) {
	if w.transient > 0 {
		w.transient--
		return nil, 0, 0, false, false
	}
	if w.tornManifest != nil {
		return nil, 0, 0, false, false
	}
	var faulty []int64
	anyAhead := false
	for _, d := range w.cur.days() {
		f, n := w.file[d], w.cur[d]
		switch {
		case w.served[d] == n && f.n == n && (f.bad == nil || f.rot):
			adopted++ // entry and on-disk size unchanged: shared, not read
		case f.n == n && f.bad == nil:
			decoded++
		default:
			ahead := f.n > 0 && f.bad == nil
			anyAhead = anyAhead || ahead
			faulty = append(faulty, d)
			heals = append(heals, healWant{day: d, ahead: ahead})
		}
	}
	if len(faulty) == 0 {
		w.publish(nil)
		return nil, adopted, decoded, true, false
	}
	if !w.selfHeal {
		w.cov.hit("S8 any fault · strict policy")
		return nil, 0, 0, false, false
	}
	if anyAhead {
		w.cov.hit("S7 ahead of the manifest · load step")
		return heals, 0, 0, false, false
	}
	var missing []int64
	repaired := 0
	for i, d := range faulty {
		f := w.file[d]
		if _, aside := w.aside[d]; !aside {
			w.cov.hit("S2 damaged · load step")
			heals[i].quarantined = true
			w.aside[d], w.file[d] = f.bad, shardFile{}
			w.gone(store.ShardFileName(d))
		} else {
			w.cov.hit("S3 already aside · either step")
		}
		if w.backing && w.backed[d] == w.cur[d] {
			w.cov.hit("S4 aside · repair verifies")
			heals[i].repaired = true
			repaired++
			delete(w.aside, d)
			w.file[d] = shardFile{n: w.cur[d]}
			w.touch(store.ShardFileName(d))
		} else {
			w.cov.hit("S5 aside · no backing that reproduces the bytes")
			missing = append(missing, d)
		}
	}
	if repaired > 0 { // the second pass adopts the first's healthy shards
		adopted, decoded = adopted+decoded, repaired
	}
	w.publish(missing)
	return heals, adopted, decoded, true, len(missing) > 0
}

func (w *world) publish(missing []int64) {
	w.servedFrom, w.served = w.cur, w.cur.clone()
	for _, d := range missing {
		delete(w.served, d)
	}
	w.bodies, w.servedStamp = nil, make(map[string]int64, len(w.stamp))
	for name, at := range w.stamp {
		w.servedStamp[name] = at
	}
}

// checkedFile is a file checkDir has read: its stat then, and the bytes
// it was expected to hold and did.
type checkedFile struct {
	info os.FileInfo
	data []byte
}

// checkDir holds the directory to exactly the files the world says it
// holds, byte for byte where the daemon could have touched them: so no
// step of any trip renamed, removed, rewrote or left behind anything the
// table does not say it should.
func (w *world) checkDir(after string) {
	w.t.Helper()
	want := map[string][]byte{"series.jsonl": nil, store.ManifestFile: w.tornManifest}
	if w.tornManifest == nil {
		want[store.ManifestFile] = w.cur.manifest()
	}
	if w.backing {
		want["jobs.supremm"] = nil
	}
	for d, f := range w.file {
		if f.n == 0 {
			continue
		}
		want[store.ShardFileName(d)] = f.bad
		if f.bad == nil {
			want[store.ShardFileName(d)], _ = shardBytes(d, f.n)
		}
	}
	for d, data := range w.aside {
		want[store.QuarantinedShardFile(d)] = data
	}
	if q, r := custodyCounts(w.t, w.dir); q+r > 0 {
		want[store.QuarantineFile] = nil
	}
	for name, info := range w.listing {
		data, ok := want[name]
		if !ok {
			w.t.Errorf("after %s: %s is in the directory and should not be", after, name)
			continue
		}
		// Read again only what has a new stat or new expected bytes since
		// it was last read: everything that writes here, the schedule's
		// silent rot apart, changes one or the other.
		was := w.checked[name]
		same := was.info != nil && os.SameFile(was.info, info) && was.info.Size() == info.Size() &&
			was.info.ModTime().Equal(info.ModTime()) && len(was.data) == len(data) &&
			(len(data) == 0 || &was.data[0] == &data[0])
		if data != nil && !same {
			if got, err := os.ReadFile(w.path(name)); err != nil || !bytes.Equal(got, data) {
				w.t.Errorf("after %s: %s does not hold the bytes it should (err %v)", after, name, err)
			}
			w.checked[name] = checkedFile{info, data}
		}
		delete(want, name)
	}
	for name := range want {
		w.t.Errorf("after %s: %s is missing from the directory", after, name)
	}
}

// modelMetrics is what the model test reads off /metrics.
type modelMetrics struct {
	Generation     uint64  `json:"store_generation"`
	Reloads        int64   `json:"reloads"`
	ReloadErrors   int64   `json:"reload_errors"`
	ScrubSweeps    int64   `json:"scrub_sweeps"`
	ShardsScrubbed int64   `json:"shards_scrubbed"`
	Quarantines    int64   `json:"quarantines"`
	Repairs        int64   `json:"repairs"`
	CoverageRatio  float64 `json:"coverage_ratio"`
	Degraded       bool    `json:"degraded"`
	Breaker        struct {
		State               string `json:"state"`
		ConsecutiveFailures int    `json:"consecutive_failures"`
		Opens               int64  `json:"opens"`
		ReloadsSkipped      int64  `json:"reloads_skipped"`
		CooldownPolls       int    `json:"cooldown_polls"`
	} `json:"breaker"`
}

func runReloadModel(t *testing.T, seed int64, steps int, cov *rowCoverage) {
	w := &world{
		t: t, rng: rand.New(rand.NewSource(seed)), dir: t.TempDir(),
		selfHeal: seed%5 != 0, cov: cov, listing: map[string]os.FileInfo{}, checked: map[string]checkedFile{},
		stamp: map[string]int64{},
	}
	var series bytes.Buffer
	if err := store.SaveSeries(&series, fixtureSeries(6)); err != nil {
		t.Fatal(err)
	}
	w.write("series.jsonl", series.Bytes())
	w.land(batch{0: 4, 1: 3, 2: 5})
	w.settle(true)

	m := &refModel{threshold: 2, backoff0: 1 + int(seed%2), gen: 1}
	srv, err := New(Config{
		DataDir: w.dir, SelfHeal: w.selfHeal, ScrubBudgetBytes: -1, Open: w.open,
		BreakerThreshold: m.threshold, BreakerBackoffPolls: m.backoff0,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.publish(nil)
	w.settle(false)

	// sum is the trip records added up: what /metrics must read.
	var sum modelMetrics
	for step := 0; step < steps && !t.Failed(); step++ {
		before := srv.Snapshot()
		var what string
		if w.rng.Intn(3) == 0 {
			what = w.mutate()
			w.settle(true)
		} else {
			forced := w.rng.Intn(4) == 0
			what = map[bool]string{false: "poll", true: "forced reload"}[forced]
			var heals []healWant
			if !forced && w.selfHeal {
				heals = w.wantScrub()
			}
			scrubbed := int64(len(w.served))
			var adopted, decoded int
			want, row := m.trip(forced, w.dirty(), func() (ok, degraded bool) {
				var loadHeals []healWant
				loadHeals, adopted, decoded, ok, degraded = w.wantLoad()
				heals = append(heals, loadHeals...)
				return ok, degraded
			})
			cov.hit(row)
			what += " (" + row + ")"

			var tr trip
			if forced {
				tr = srv.dir.force()
			} else {
				tr = srv.dir.poll()
			}
			w.settle(false)

			if tr.outcome != want {
				t.Fatalf("seed %d step %d, %s: outcome %d (err %v), the table says %d", seed, step, what, tr.outcome, tr.err, want)
			}
			published := want == tripPublished || want == tripDegraded
			if (tr.snap != nil) != published || (tr.err != nil) != (want == tripFailed) {
				t.Fatalf("seed %d step %d, %s: record %+v does not fit its outcome", seed, step, what, tr)
			}
			if loads := want != tripUnchanged && want != tripSkipped; (tr.attempts == 1) != loads || tr.attempts > 1 {
				t.Errorf("seed %d step %d, %s: %d attempts", seed, step, what, tr.attempts)
			}
			var got []healWant
			for _, h := range tr.heals {
				got = append(got, healWant{h.info.ID, h.ahead, h.quarantined, h.repaired})
				if h.quarantined {
					sum.Quarantines++
				}
				if h.repaired {
					sum.Repairs++
				}
			}
			if !reflect.DeepEqual(got, heals) {
				t.Errorf("seed %d step %d, %s: shards healed %+v, the table says %+v", seed, step, what, got, heals)
			}
			if forced || !w.selfHeal {
				scrubbed = 0
			}
			if tr.scrubbed != scrubbed || (tr.sweeps == 1) != (scrubbed > 0) {
				t.Errorf("seed %d step %d, %s: scrub step read %d shards in %d sweeps, want %d", seed, step, what, tr.scrubbed, tr.sweeps, scrubbed)
			}
			sum.ShardsScrubbed += tr.scrubbed
			sum.ScrubSweeps += int64(tr.sweeps)
			switch {
			case published:
				sum.Reloads++
				if tr.shards.Reused != adopted || tr.shards.Loaded != decoded || !tr.seriesAdopted {
					t.Errorf("seed %d step %d, %s: %d shards adopted, %d decoded, series adopted %v; want %d, %d, true",
						seed, step, what, tr.shards.Reused, tr.shards.Loaded, tr.seriesAdopted, adopted, decoded)
				}
			case want == tripFailed:
				sum.ReloadErrors++
			}

			// A generation is taken when, and only when, one is published.
			after := srv.Snapshot()
			if published {
				if after != tr.snap || after == before || after.Gen != before.Gen+1 {
					t.Fatalf("seed %d step %d, %s: published generation %d after %d", seed, step, what, after.Gen, before.Gen)
				}
			} else if after != before {
				t.Fatalf("seed %d step %d, %s: the served snapshot was replaced (generation %d -> %d)", seed, step, what, before.Gen, after.Gen)
			}
		}
		t.Logf("step %d: %s", step, what) // the schedule, printed when the seed fails
		w.checkDir(what)

		// The served snapshot: coverage as promised by the manifest it was
		// loaded from, answers as the naive loop over exactly its rows.
		snap := srv.Snapshot()
		var missing []int64
		rowsTotal, rowsServed := 0, 0
		for d, n := range w.servedFrom {
			rowsTotal += n
			if _, ok := w.served[d]; !ok {
				missing = append(missing, d)
			} else {
				rowsServed += n
			}
		}
		wantCov := Coverage{
			RowsServed: rowsServed, RowsTotal: rowsTotal, Ratio: float64(rowsServed) / float64(rowsTotal),
			Degraded: len(missing) > 0, MissingShards: len(missing), MissingDays: collapseDays(missing),
		}
		if !coverageEqual(snap.Coverage, wantCov) || snap.Gen != m.gen {
			t.Fatalf("seed %d step %d, %s: generation %d coverage %+v, want generation %d coverage %+v",
				seed, step, what, snap.Gen, snap.Coverage, m.gen, wantCov)
		}
		if w.bodies == nil {
			w.bodies = naiveBodies(t, w.served)
		}
		for i, target := range modelTargets {
			if status, body := get(t, srv, target); status != http.StatusOK || !bytes.Equal(body, w.bodies[i]) {
				t.Fatalf("seed %d step %d, %s: %s = %d\n%s\nthe naive row loop over %v says\n%s",
					seed, step, what, target, status, body, w.served, w.bodies[i])
			}
		}

		// /metrics: the trip records summed, the model's breaker, the
		// custody log's record counts.
		var met modelMetrics
		if err := json.Unmarshal(getRec(srv, "/metrics").Body.Bytes(), &met); err != nil {
			t.Fatal(err)
		}
		wantMet := sum
		wantMet.Generation, wantMet.CoverageRatio, wantMet.Degraded = m.gen, wantCov.Ratio, wantCov.Degraded
		wantMet.Breaker.State = map[bool]string{false: "closed", true: "open"}[m.open]
		wantMet.Breaker.ConsecutiveFailures, wantMet.Breaker.CooldownPolls = m.failures, m.cooldown
		wantMet.Breaker.Opens, wantMet.Breaker.ReloadsSkipped = m.opens, m.skipped
		if met != wantMet {
			t.Fatalf("seed %d step %d, %s: /metrics\n%+v\nthe trip records and the model say\n%+v", seed, step, what, met, wantMet)
		}
		logQ, logR := custodyCounts(t, w.dir)
		logQ, logR = logQ+w.cleanedQ, logR+w.cleanedR
		if met.Quarantines != logQ || met.Repairs != logR {
			t.Fatalf("seed %d step %d, %s: /metrics counts %d quarantines and %d repairs, the custody log %d and %d",
				seed, step, what, met.Quarantines, met.Repairs, logQ, logR)
		}
	}
}

// TestReloadModelRacing is the same directory under real concurrency —
// four pollers, two forced reloaders and one writer that appends whole
// batches (late rows and new days) through the real writer — holding
// only what must hold under every interleaving: an append is never
// mistaken for damage (nothing moved aside, nothing logged, coverage
// always 1), every answer is exactly some landed batch's by the naive
// row loop, generations only rise, and once the writer stops one reload
// serves its last batch.
func TestReloadModelRacing(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	b := batch{0: 4, 1: 3, 2: 5}
	writeDataDir(t, dir, b.store(), fixtureSeries(6), nil)
	srv, err := New(Config{DataDir: dir, SelfHeal: true, ScrubBudgetBytes: -1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}

	const batches = 6
	rng := rand.New(rand.NewSource(18))
	valid := map[string]bool{} // every body some landed batch answers with
	plan := []batch{b}
	for i := 0; i < batches; i++ {
		b = b.clone()
		days := b.days()
		b[days[rng.Intn(len(days))]]++
		if i%2 == 0 {
			b[days[len(days)-1]+1] = 4
		}
		plan = append(plan, b)
	}
	for _, b := range plan {
		for _, body := range naiveBodies(t, b) {
			valid[string(body)] = true
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				fn()
			}
		}()
	}
	check := func(who string) {
		snap := srv.Snapshot()
		if snap.Coverage.Degraded || snap.Coverage.Ratio != 1 {
			t.Errorf("%s: generation %d serves coverage %+v while the only writer is an append", who, snap.Gen, snap.Coverage)
		}
		for _, target := range modelTargets {
			if status, body := get(t, srv, target); status != http.StatusOK || !valid[string(body)] {
				t.Errorf("%s: %s = %d, not the answer of any landed batch:\n%s", who, target, status, body)
			}
		}
	}
	for g := 0; g < 4; g++ {
		last := uint64(0)
		run(func() {
			_, _ = srv.MaybeReload() // a poll between a shard and its manifest fails; that is the point
			if gen := srv.Snapshot().Gen; gen < last {
				t.Errorf("poller saw generation %d after %d", gen, last)
			} else {
				last = gen
			}
			check("poller")
		})
	}
	for g := 0; g < 2; g++ {
		run(func() {
			_, _ = srv.Reload()
			check("forcer")
		})
	}
	for _, b := range plan[1:] {
		writeDataDir(t, dir, b.store(), fixtureSeries(6), nil)
	}
	stop.Store(true)
	wg.Wait()

	if _, err := srv.Reload(); err != nil {
		t.Fatalf("reload after the writer stopped: %v", err)
	}
	final := naiveBodies(t, plan[len(plan)-1])
	for i, target := range modelTargets {
		if _, body := get(t, srv, target); !bytes.Equal(body, final[i]) {
			t.Errorf("%s after the writer stopped is not the last batch's answer", target)
		}
	}
	if aside, _ := filepath.Glob(filepath.Join(dir, "*"+store.QuarantineSuffix)); len(aside) != 0 {
		t.Errorf("an appended shard was moved aside: %v", aside)
	}
	metQ, metR, logQ, logR := healCounts(t, srv, dir)
	if metQ != 0 || metR != 0 || logQ != 0 || logR != 0 {
		t.Errorf("appends were healed: /metrics %d quarantines %d repairs, custody log %d and %d", metQ, metR, logQ, logR)
	}
}
