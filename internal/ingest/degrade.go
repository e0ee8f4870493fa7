package ingest

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path"

	"supremm/internal/taccstats"
)

// DefaultMaxIntervalSec is the default plausibility bound on one
// interval's duration. Real archives contain multi-hour gaps from node
// repairs and half-day maintenance shutdowns that are legitimate data;
// a gap longer than a full day means a missing day file or a stepped
// clock, and the bridging interval is noise.
const DefaultMaxIntervalSec = 86400

// Options parameterizes IngestRawOpts. The zero value is the strict
// policy, one worker, reading the local filesystem, one-day
// plausibility bound, no retries.
type Options struct {
	// Policy selects abort-on-fault (Strict) or quarantine-and-account
	// (Lenient).
	Policy Policy
	// Workers is the pool size: how many hosts are reduced at once (<= 1
	// means one). It never changes a byte of the result.
	Workers int
	// FS overrides the archive filesystem; nil reads os.DirFS(dir).
	// Tests inject flaky filesystems here.
	FS fs.FS
	// MaxIntervalSec bounds a plausible interval; longer ones are
	// suppressed and counted as clamped. 0 means DefaultMaxIntervalSec;
	// negative disables the bound.
	MaxIntervalSec int64
	// RetryMax is how many times a transiently failing file read is
	// retried before the failure is treated as permanent.
	RetryMax int
	// Backoff, if set, runs before retry attempt n (1-based). The
	// ingest core never sleeps on its own; callers that want real
	// backoff delays inject them here.
	Backoff func(attempt int)
}

// rawOptions is Options with defaults resolved.
type rawOptions struct {
	policy      Policy
	fsys        fs.FS
	maxInterval float64
	retryMax    int
	backoff     func(int)
}

func (opts Options) resolve(dir string) rawOptions {
	o := rawOptions{
		policy:   opts.Policy,
		fsys:     opts.FS,
		retryMax: opts.RetryMax,
		backoff:  opts.Backoff,
	}
	if o.fsys == nil {
		o.fsys = os.DirFS(dir)
	}
	switch {
	case opts.MaxIntervalSec == 0:
		o.maxInterval = DefaultMaxIntervalSec
	case opts.MaxIntervalSec < 0:
		o.maxInterval = math.Inf(1)
	default:
		o.maxInterval = float64(opts.MaxIntervalSec)
	}
	return o
}

// FaultError is what strict-policy ingest returns: the first fault,
// located to host and file. Parse faults additionally carry the line
// number inside the wrapped error.
type FaultError struct {
	Host string
	File string
	Err  error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("ingest: fault at %s/%s: %v", e.Host, e.File, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// isTransient reports whether err declares itself Temporary(), the
// stdlib convention syscall errors and injected fault-testing errors
// share. (Deliberately local: ingest must not depend on faultinject.)
func isTransient(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// hostState is the carry between consecutive files of one host: the
// last good record, its layout, and the compiled plan.
type hostState struct {
	prevFlat   []uint64
	prevLayout *taccstats.Layout
	prevTime   int64
	havePrev   bool
	plan       *metricPlan
}

// snapshot deep-copies the mutable carry so a failed parse attempt can
// be discarded without corrupting the committed state. Layouts and
// plans are immutable once their file is done, so sharing the pointers
// is safe; a re-parse builds a fresh Layout, which invalidates the plan
// by pointer identity and forces a recompile.
func (s *hostState) snapshot() hostState {
	c := *s
	c.prevFlat = append([]uint64(nil), s.prevFlat...)
	return c
}

// timedInterval is one reduced interval pending commit.
type timedInterval struct {
	prevTime, curTime int64
	iv                Interval
}

// fileQuality is one file's tentative accounting, merged into the host
// totals only if the file commits.
type fileQuality struct {
	recordsDropped    int
	duplicatesSkipped int
	resetsDetected    int
	intervalsClamped  int
}

func (fq *fileQuality) commit(q *DataQuality) {
	q.RecordsDropped += fq.recordsDropped
	q.DuplicatesSkipped += fq.duplicatesSkipped
	q.ResetsDetected += fq.resetsDetected
	q.IntervalsClamped += fq.intervalsClamped
}

// streamHost streams one host's day files in order through ParseStream,
// folding record pairs into Intervals exactly as the schema-compiled
// fast path always has, with degraded-mode isolation around it: each
// file parses into a pending buffer first and only commits — intervals
// emitted, accounting merged, carry state advanced — if the whole file
// is good. A bad file either aborts (Strict) or is quarantined
// (Lenient), and quarantine resets the carry so no interval bridges
// across unread data. Transient read failures retry up to retryMax
// times before counting as permanent. emit receives intervals in
// deterministic file order; peak memory is one file's intervals plus
// two flat records.
func streamHost(o rawOptions, host string, q *DataQuality, emit func(prevTime, curTime int64, iv Interval)) error {
	entries, err := fs.ReadDir(o.fsys, host)
	if err != nil {
		return fmt.Errorf("ingest: read host dir %s: %w", host, err)
	}
	var st hostState
	for _, fe := range sortedRawFiles(entries) {
		name := fe.Name()
		q.FilesScanned++
		pending, next, err := parseFileRetrying(o, host, name, st, q)
		if err != nil {
			if o.policy == Strict {
				return &FaultError{Host: host, File: name, Err: err}
			}
			q.FilesQuarantined++
			q.Quarantined = append(q.Quarantined, QuarantinedFile{
				Host: host, File: name, Reason: err.Error(),
			})
			st = hostState{}
			continue
		}
		for i := range pending {
			emit(pending[i].prevTime, pending[i].curTime, pending[i].iv)
		}
		st = next
	}
	return nil
}

// parseFileRetrying runs parseFileOnce with bounded retry on transient
// errors. Each attempt starts from a snapshot of the committed carry,
// so retries are idempotent.
func parseFileRetrying(o rawOptions, host, name string, base hostState, q *DataQuality) ([]timedInterval, hostState, error) {
	for attempt := 0; ; attempt++ {
		pending, next, fq, err := parseFileOnce(o, host, name, base.snapshot())
		if err == nil {
			fq.commit(q)
			return pending, next, nil
		}
		if !isTransient(err) || attempt >= o.retryMax {
			return nil, hostState{}, err
		}
		q.RetriesPerformed++
		if o.backoff != nil {
			o.backoff(attempt + 1)
		}
	}
}

// parseFileOnce parses one file against the carried state, applying the
// interval-level sanity guards:
//
//   - dt < 0 (non-monotonic timestamp): the interval is dropped and
//     counted, and the record becomes the new baseline (job-boundary
//     marks legitimately arrive out of order in real archives);
//   - dt == 0 (retransmitted sample or rotate mark): counted as a
//     duplicate, refreshes the baseline, adds no interval;
//   - CPU counters moving backwards: a node reboot; counted as a reset
//     (eventDelta's reset semantics already yield the right delta);
//   - dt beyond the plausibility bound (missing day, stepped clock):
//     the bridging interval is suppressed and counted as clamped.
func parseFileOnce(o rawOptions, host, name string, st hostState) ([]timedInterval, hostState, fileQuality, error) {
	var fq fileQuality
	p := path.Join(host, name)
	fh, err := o.fsys.Open(p)
	if err != nil {
		return nil, st, fq, fmt.Errorf("open: %w", err)
	}
	var pending []timedInterval
	_, perr := taccstats.ParseStream(fh, func(rec *taccstats.Record) error {
		lay := rec.Layout()
		cur := rec.Flat()
		if st.havePrev {
			dt := float64(rec.Time - st.prevTime)
			switch {
			case dt < 0:
				// Job begin/end marks legitimately arrive slightly out
				// of order (the monitor stamps them with the event time,
				// between periodic samples), so this is not a fault in
				// either policy: the interval is dropped and counted,
				// and the record becomes the new baseline, exactly as
				// the legacy path behaved.
				fq.recordsDropped++
			case dt == 0:
				fq.duplicatesSkipped++
			default:
				if !st.plan.valid(st.prevLayout, lay) {
					st.plan = compilePlan(st.prevLayout, lay)
				}
				if cpuMovedBackwards(st.plan, st.prevFlat, cur) {
					fq.resetsDetected++
				}
				if dt > o.maxInterval {
					fq.intervalsClamped++
				} else {
					pending = append(pending, timedInterval{
						prevTime: st.prevTime, curTime: rec.Time,
						iv: computeIntervalPlan(st.plan, st.prevFlat, cur, dt),
					})
				}
			}
		}
		st.prevFlat = append(st.prevFlat[:0], cur...)
		st.prevLayout = lay
		st.prevTime = rec.Time
		st.havePrev = true
		return nil
	})
	closeErr := fh.Close()
	if perr != nil {
		return nil, st, fq, fmt.Errorf("parse: %w", perr)
	}
	if closeErr != nil {
		return nil, st, fq, fmt.Errorf("close: %w", closeErr)
	}
	return pending, st, fq, nil
}

// cpuMovedBackwards reports whether any scheduler CPU counter moved
// backwards between the two records. Unlike PMCs (reprogrammed at every
// job start) and long-lived event counters (which wrap), kernel CPU
// centisecond counters only ever restart from zero on reboot, so
// backwards movement here is a reliable reset signal.
func cpuMovedBackwards(p *metricPlan, prev, cur []uint64) bool {
	for _, cols := range [...][]colPair{p.user, p.nice, p.system, p.irq, p.softirq, p.idle, p.iowait} {
		for _, c := range cols {
			if at(cur, c.cur) < at(prev, c.prev) {
				return true
			}
		}
	}
	return false
}
