package report

import (
	"bytes"
	"fmt"

	"supremm/internal/core"
	"supremm/internal/ingest"
)

// HTMLDashboard appends a single self-contained HTML page to b — the
// reproduction's stand-in for XDMoD's web UI: headline tiles per
// cluster, the vector figures inline, the cross-system table, and a
// data-completeness section rendered from the ingest quality report q
// (nil omits it: the simulate path has no quality report to show).
// Everything is embedded; the file opens offline in any browser.
func HTMLDashboard(b *bytes.Buffer, q *ingest.DataQuality, realms ...*core.Realm) error {
	if len(realms) == 0 {
		return fmt.Errorf("report: dashboard needs at least one realm")
	}
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>SUPReMM dashboard</title>
<style>
body { font-family: sans-serif; margin: 24px; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { border: 1px solid #ccc; border-radius: 6px; padding: 10px 16px; min-width: 130px; }
.tile .v { font-size: 22px; font-weight: bold; } .tile .k { font-size: 11px; color: #666; }
table { border-collapse: collapse; margin-top: 8px; }
td, th { border: 1px solid #ccc; padding: 4px 10px; font-size: 13px; text-align: right; }
th { background: #f2f2f2; } td:first-child, th:first-child { text-align: left; }
figure { display: inline-block; margin: 8px; border: 1px solid #eee; }
</style></head><body>
<h1>SUPReMM dashboard &mdash; data-driven system management</h1>
`)
	for _, r := range realms {
		flops := r.FlopsReport()
		mem := r.MemoryReport()
		eff := r.EffectiveUse()
		fmt.Fprintf(b, "<h2>%s</h2>\n<div class=\"tiles\">\n", svgEscape(r.Cluster))
		tile := func(value, key string) {
			fmt.Fprintf(b, `<div class="tile"><div class="v">%s</div><div class="k">%s</div></div>`+"\n",
				svgEscape(value), svgEscape(key))
		}
		tile(fmt.Sprintf("%d", r.JobCount()), "jobs analyzed")
		tile(fmt.Sprintf("%.0f", r.TotalNodeHours()), "node-hours")
		tile(fmt.Sprintf("%.1f%%", r.FleetEfficiency()*100), "fleet efficiency")
		tile(fmt.Sprintf("%.2f TF", flops.MeanTFlops), fmt.Sprintf("delivered (peak %.0f TF)", flops.MachinePeakTF))
		tile(fmt.Sprintf("%.1f GB", mem.MeanGB), fmt.Sprintf("mem/node of %.0f GB", mem.CapacityGB))
		tile(fmt.Sprintf("%.1f%%", eff.AllocatedFraction*100), "capacity allocated")
		b.WriteString("</div>\n")

		// Inline the vector figures.
		if err := SVGFigures(r, func(name string, svg []byte) error {
			fmt.Fprintf(b, "<figure><!-- %s -->\n", svgEscape(name))
			b.Write(svg)
			b.WriteString("</figure>\n")
			return nil
		}); err != nil {
			return err
		}
	}
	if len(realms) > 1 {
		cmp := core.CompareSystems(realms...)
		b.WriteString("<h2>cross-system comparison</h2>\n<table><tr><th>cluster</th><th>jobs</th><th>node-hours</th><th>efficiency</th><th>mean TF</th><th>mem used</th><th>allocated</th></tr>\n")
		for _, row := range cmp.Rows {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%.0f</td><td>%.1f%%</td><td>%.2f</td><td>%.1f%%</td><td>%.1f%%</td></tr>\n",
				svgEscape(row.Cluster), row.Jobs, row.NodeHours, row.Efficiency*100,
				row.MeanTFlops, row.MemFraction*100, row.AllocatedFraction*100)
		}
		b.WriteString("</table>\n")
	}
	if q != nil {
		htmlQualitySection(b, q)
	}
	b.WriteString("</body></html>\n")
	return nil
}

// htmlQualitySection renders the ingest quality report as dashboard
// tiles plus the quarantine table — the web-UI twin of DataCompleteness.
func htmlQualitySection(b *bytes.Buffer, q *ingest.DataQuality) {
	b.WriteString("<h2>data completeness</h2>\n<div class=\"tiles\">\n")
	tile := func(value, key string) {
		fmt.Fprintf(b, `<div class="tile"><div class="v">%s</div><div class="k">%s</div></div>`+"\n",
			svgEscape(value), svgEscape(key))
	}
	tile(fmt.Sprintf("%.1f%%", q.Completeness()*100),
		fmt.Sprintf("of %d files ingested", q.FilesScanned))
	tile(fmt.Sprintf("%d", q.FilesQuarantined), "files quarantined")
	tile(fmt.Sprintf("%d", q.RecordsDropped), "records dropped")
	tile(fmt.Sprintf("%d", q.ResetsDetected), "counter resets")
	tile(fmt.Sprintf("%d", q.IntervalsClamped), "intervals clamped")
	tile(fmt.Sprintf("%d", q.JobsNoData), "jobs without data")
	b.WriteString("</div>\n")
	if len(q.Quarantined) == 0 {
		return
	}
	b.WriteString("<table><tr><th>host</th><th>file</th><th>reason</th></tr>\n")
	for _, qf := range q.Quarantined {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			svgEscape(qf.Host), svgEscape(qf.File), svgEscape(qf.Reason))
	}
	b.WriteString("</table>\n")
}
