package report

import (
	"bytes"
	"fmt"

	"supremm/internal/ingest"
)

// DataCompleteness renders the ingest data-quality report as text — the
// operations-staff view of how much of the raw archive actually made it
// into the warehouse, and where the rest went. Pairs with the §4.3.3
// failure profiles: one explains failed jobs, this explains missing
// measurements.
func DataCompleteness(b *bytes.Buffer, q *ingest.DataQuality) {
	b.WriteString("== data completeness (ingest quality report) ==\n")
	fmt.Fprintf(b, "  files ingested      %d of %d (%.1f%%)\n",
		q.FilesScanned-q.FilesQuarantined, q.FilesScanned, q.Completeness()*100)
	fmt.Fprintf(b, "  records dropped     %d (out-of-order timestamps)\n", q.RecordsDropped)
	fmt.Fprintf(b, "  duplicates skipped  %d\n", q.DuplicatesSkipped)
	fmt.Fprintf(b, "  counter resets      %d (node reboots mid-archive)\n", q.ResetsDetected)
	fmt.Fprintf(b, "  intervals clamped   %d (gaps past the sanity bound)\n", q.IntervalsClamped)
	fmt.Fprintf(b, "  transient retries   %d\n", q.RetriesPerformed)
	fmt.Fprintf(b, "  jobs without data   %d\n", q.JobsNoData)
	if !q.Degraded() {
		b.WriteString("  no degradation: every scanned file ingested cleanly\n")
		return
	}
	if len(q.Quarantined) == 0 {
		return
	}
	t := NewTable("quarantined files", "host", "file", "reason")
	for i, qf := range q.Quarantined {
		if i >= 20 {
			t.AddRow("...", fmt.Sprintf("%d more files", len(q.Quarantined)-20), "")
			break
		}
		t.AddRow(qf.Host, qf.File, qf.Reason)
	}
	t.Render(b)
}
