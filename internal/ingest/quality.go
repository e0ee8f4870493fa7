package ingest

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Policy selects how ingest reacts to faulty input.
type Policy int

const (
	// Strict aborts the whole ingest at the first fault, reporting it
	// with host/file(/line) context. This is the legacy behavior and
	// the zero value: existing callers keep their abort-on-error
	// semantics unless they opt into degradation.
	Strict Policy = iota
	// Lenient quarantines faulty files, drops individually implausible
	// records, and accounts for every loss in DataQuality — the posture
	// an 18-month production deployment needs, where partial data is
	// the normal case.
	Lenient
)

func (p Policy) String() string {
	if p == Lenient {
		return "lenient"
	}
	return "strict"
}

// QuarantinedFile identifies one raw file excluded from ingest and why.
type QuarantinedFile struct {
	Host   string `json:"host"`
	File   string `json:"file"`
	Reason string `json:"reason"`
}

// DataQuality accounts for everything a degraded-mode ingest dropped,
// repaired, or retried — the operations-staff "data completeness" view.
// A clean archive yields the zero value (plus FilesScanned).
type DataQuality struct {
	// FilesScanned counts every raw file considered, good or bad.
	FilesScanned int `json:"files_scanned"`
	// FilesQuarantined counts files excluded wholesale because they
	// failed to open, read, or parse (lenient policy only).
	FilesQuarantined int `json:"files_quarantined"`
	// RecordsDropped counts records rejected by sanity guards
	// (non-monotonic timestamps).
	RecordsDropped int `json:"records_dropped"`
	// DuplicatesSkipped counts zero-dt records (collector retransmits
	// and rotate marks); they refresh the baseline but add no interval.
	DuplicatesSkipped int `json:"duplicates_skipped"`
	// ResetsDetected counts intervals where CPU counters moved
	// backwards — the signature of a node reboot mid-archive.
	ResetsDetected int `json:"resets_detected"`
	// IntervalsClamped counts intervals longer than the plausibility
	// bound (missing day files, clock steps); they are suppressed
	// rather than attributed with an implausible dt.
	IntervalsClamped int `json:"intervals_clamped"`
	// RetriesPerformed counts transient read failures that were retried.
	RetriesPerformed int `json:"retries_performed"`
	// JobsNoData counts jobs finalized with zero samples — too short to
	// span a sampling interval, or starved because their only host files
	// were quarantined. Keeping this next to Unattributed means the two
	// can never silently disagree about where a job's data went.
	JobsNoData int `json:"jobs_no_data"`
	// Quarantined lists every excluded file, in sorted host order then
	// day order — identical between sequential and parallel ingest.
	Quarantined []QuarantinedFile `json:"quarantined,omitempty"`
}

// add merges another host's accounting (parallel merge path).
func (q *DataQuality) add(o *DataQuality) {
	q.FilesScanned += o.FilesScanned
	q.FilesQuarantined += o.FilesQuarantined
	q.RecordsDropped += o.RecordsDropped
	q.DuplicatesSkipped += o.DuplicatesSkipped
	q.ResetsDetected += o.ResetsDetected
	q.IntervalsClamped += o.IntervalsClamped
	q.RetriesPerformed += o.RetriesPerformed
	q.JobsNoData += o.JobsNoData
	q.Quarantined = append(q.Quarantined, o.Quarantined...)
}

// Degraded reports whether any data was lost or repaired.
func (q *DataQuality) Degraded() bool {
	return q.FilesQuarantined > 0 || q.RecordsDropped > 0 ||
		q.ResetsDetected > 0 || q.IntervalsClamped > 0 || q.JobsNoData > 0
}

// Completeness is the fraction of scanned files that were ingested;
// 1.0 for an empty or fully clean archive.
func (q *DataQuality) Completeness() float64 {
	if q.FilesScanned == 0 {
		return 1
	}
	return float64(q.FilesScanned-q.FilesQuarantined) / float64(q.FilesScanned)
}

// WriteQuality streams the report as JSON to w — the writer-based form
// cmd/ingest's atomic output path uses.
func WriteQuality(w io.Writer, q *DataQuality) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(q); err != nil {
		return fmt.Errorf("ingest: write quality report: %w", err)
	}
	return nil
}

// LoadQuality reads a report written by WriteQuality.
func LoadQuality(path string) (*DataQuality, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var q DataQuality
	if err := json.Unmarshal(b, &q); err != nil {
		return nil, fmt.Errorf("ingest: parse quality report %s: %w", path, err)
	}
	return &q, nil
}
