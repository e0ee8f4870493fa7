package report

import (
	"fmt"
	"io"

	"supremm/internal/ingest"
)

// DataCompleteness renders the ingest data-quality report as text — the
// operations-staff view of how much of the raw archive actually made it
// into the warehouse, and where the rest went. Pairs with the §4.3.3
// failure profiles: one explains failed jobs, this explains missing
// measurements.
func DataCompleteness(w io.Writer, q *ingest.DataQuality) error {
	ew := newErrWriter(w)
	ew.printf("== data completeness (ingest quality report) ==\n")
	ew.printf("  files ingested      %d of %d (%.1f%%)\n",
		q.FilesScanned-q.FilesQuarantined, q.FilesScanned, q.Completeness()*100)
	ew.printf("  records dropped     %d (out-of-order timestamps)\n", q.RecordsDropped)
	ew.printf("  duplicates skipped  %d\n", q.DuplicatesSkipped)
	ew.printf("  counter resets      %d (node reboots mid-archive)\n", q.ResetsDetected)
	ew.printf("  intervals clamped   %d (gaps past the sanity bound)\n", q.IntervalsClamped)
	ew.printf("  transient retries   %d\n", q.RetriesPerformed)
	ew.printf("  jobs without data   %d\n", q.JobsNoData)
	if !q.Degraded() {
		ew.printf("  no degradation: every scanned file ingested cleanly\n")
		return ew.err
	}
	if ew.err != nil {
		return ew.err
	}
	if len(q.Quarantined) == 0 {
		return nil
	}
	t := NewTable("quarantined files", "host", "file", "reason")
	for i, qf := range q.Quarantined {
		if i >= 20 {
			t.AddRow("...", fmt.Sprintf("%d more files", len(q.Quarantined)-20), "")
			break
		}
		t.AddRow(qf.Host, qf.File, qf.Reason)
	}
	return t.Render(w)
}
