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

// resolve fills in the archive filesystem: os.DirFS(dir) unless FS
// overrides it.
func (opts Options) resolve(dir string) Options {
	if opts.FS == nil {
		opts.FS = os.DirFS(dir)
	}
	return opts
}

// maxInterval is the plausibility bound MaxIntervalSec selects, in
// seconds: DefaultMaxIntervalSec for 0, none for a negative value.
func (opts Options) maxInterval() float64 {
	switch {
	case opts.MaxIntervalSec == 0:
		return DefaultMaxIntervalSec
	case opts.MaxIntervalSec < 0:
		return math.Inf(1)
	}
	return float64(opts.MaxIntervalSec)
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
	return fmt.Sprintf("ingest: fault at %s/%s: %v", e.Host, e.File, e.Err) //supremmlint:allow hotalloc: error path, formatted once per fault, never per record
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

// streamHost streams one host's day files in order through ParseStream,
// folding record pairs into Intervals exactly as the schema-compiled
// fast path always has, with degraded-mode isolation around it: each
// file appends its intervals straight onto the host's, and they only
// stay — with the accounting merged and the carry state advanced — if
// the whole file is good; otherwise the slice is cut back to the file's
// start. A bad file either aborts (Strict) or is quarantined (Lenient),
// and quarantine resets the carry so no interval bridges across unread
// data. Transient read failures retry up to RetryMax times before
// counting as permanent. It returns the host's committed intervals in
// file order.
func streamHost(o Options, host string, q *DataQuality) ([]timedInterval, error) {
	entries, err := fs.ReadDir(o.FS, host)
	if err != nil {
		return nil, fmt.Errorf("ingest: read host dir %s: %w", host, err)
	}
	var st hostState
	var out []timedInterval
	for _, name := range taccstats.DayFiles(entries) {
		q.FilesScanned++
		out, st, err = parseFileRetrying(o, host, name, st, out, q)
		if err != nil {
			if o.Policy == Strict {
				return nil, &FaultError{Host: host, File: name, Err: err}
			}
			q.FilesQuarantined++
			q.Quarantined = append(q.Quarantined, QuarantinedFile{
				Host: host, File: name, Reason: err.Error(),
			})
			st = hostState{}
		}
	}
	return out, nil
}

// parseFileRetrying runs parseFileOnce with bounded retry on transient
// errors. Each attempt starts from a snapshot of the committed carry
// and from out cut back to its committed length, so retries are
// idempotent; a file that fails for good leaves out as it found it.
func parseFileRetrying(o Options, host, name string, base hostState, out []timedInterval, q *DataQuality) ([]timedInterval, hostState, error) {
	mark := len(out)
	for attempt := 0; ; attempt++ {
		grown, next, fq, err := parseFileOnce(o, host, name, base.snapshot(), out[:mark])
		if err == nil {
			q.add(&fq)
			return grown, next, nil
		}
		out = grown
		if !isTransient(err) || attempt >= o.RetryMax {
			return out[:mark], hostState{}, err
		}
		q.RetriesPerformed++
		if o.Backoff != nil {
			o.Backoff(attempt + 1)
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
//     the bridging interval is suppressed and counted as clamped;
//   - a type re-declared with a changed schema after its devices were
//     read (taccstats.Layout.Replaced): the plan cannot resolve the
//     type across the change, so the file fails, naming the type.
//
// It appends the file's intervals to out and returns the grown slice,
// on failure too, so the caller can cut it back and keep its capacity.
func parseFileOnce(o Options, host, name string, st hostState, out []timedInterval) ([]timedInterval, hostState, DataQuality, error) {
	var fq DataQuality // this file's, added to the host's only if it commits
	maxInterval := o.maxInterval()
	p := path.Join(host, name)
	fh, err := o.FS.Open(p)
	if err != nil {
		return out, st, fq, fmt.Errorf("open: %w", err)
	}
	_, perr := taccstats.ParseStream(fh, func(rec *taccstats.Record) error {
		lay := rec.Layout()
		if typ := lay.Replaced(); typ != "" {
			return fmt.Errorf("type %s re-declared with a changed schema after its devices were read: its intervals across the change cannot be reduced", typ)
		}
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
				fq.RecordsDropped++
			case dt == 0:
				fq.DuplicatesSkipped++
			default:
				if !st.plan.valid(st.prevLayout, lay) {
					st.plan = compilePlan(st.prevLayout, lay)
				}
				if cpuMovedBackwards(st.plan, st.prevFlat, cur) {
					fq.ResetsDetected++
				}
				if dt > maxInterval {
					fq.IntervalsClamped++
				} else {
					out = append(out, timedInterval{
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
		return out, st, fq, fmt.Errorf("parse: %w", perr)
	}
	if closeErr != nil {
		return out, st, fq, fmt.Errorf("close: %w", closeErr)
	}
	return out, st, fq, nil
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
