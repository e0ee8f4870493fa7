package report

import (
	"bytes"
	"strings"
	"testing"

	"supremm/internal/anomaly"
	"supremm/internal/appkernels"
	"supremm/internal/sched"
)

func TestTrendsRender(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	Trends(&buf, r.Cluster, r.TrendReport())
	out := buf.String()
	for _, want := range []string{"total_tflops", "slope/day", "p-value"} {
		if !strings.Contains(out, want) {
			t.Errorf("trends missing %q:\n%s", want, out)
		}
	}
}

func TestCharacterizationRender(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	Characterization(&buf, r.Cluster, r.Characterize())
	out := buf.String()
	for _, want := range []string{"job-size mix", "1 node", "64+", "by parent science", "by application"} {
		if !strings.Contains(out, want) {
			t.Errorf("characterization missing %q", want)
		}
	}
}

func TestWaitReportRender(t *testing.T) {
	ws := sched.WaitStats{Jobs: 10, MeanWaitMin: 12.5, MedianWaitMin: 5, MaxWaitMin: 99,
		SmallMeanMin: 1, MediumMeanMin: 10, LargeMeanMin: 50}
	var buf bytes.Buffer
	WaitReport(&buf, "ranger", ws)
	if !strings.Contains(buf.String(), "12.5") || !strings.Contains(buf.String(), "16+ nodes") {
		t.Errorf("wait report:\n%s", buf.String())
	}
}

func TestKernelAuditRender(t *testing.T) {
	verdicts := []appkernels.Verdict{
		{Kernel: "ak.compute", Runs: 20, BaselineMean: 100, RecentMean: 99, DeltaPct: -1},
		{Kernel: "ak.io", Runs: 20, BaselineMean: 50, RecentMean: 30, DeltaPct: -40, Degraded: true},
	}
	var buf bytes.Buffer
	KernelAudit(&buf, verdicts)
	out := buf.String()
	if !strings.Contains(out, "DEGRADED") || !strings.Contains(out, "OK") {
		t.Errorf("kernel audit:\n%s", out)
	}
}

func TestForecastReportRender(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	if err := ForecastReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"forecast skill", "scheduling hints", "io_scratch_write"} {
		if !strings.Contains(out, want) {
			t.Errorf("forecast report missing %q:\n%s", want, out)
		}
	}
}

func TestDiagnosesRender(t *testing.T) {
	diags := []anomaly.Diagnosis{
		{JobID: 1, User: "a", App: "x", Cause: "memory exhaustion"},
		{JobID: 2, User: "b", App: "y", Cause: "statistical outlier"},
		{JobID: 3, User: "c", App: "z", Cause: "statistical outlier"},
	}
	var buf bytes.Buffer
	Diagnoses(&buf, "ranger", diags, 2)
	out := buf.String()
	if !strings.Contains(out, "job 1") || !strings.Contains(out, "1 more") {
		t.Errorf("diagnoses:\n%s", out)
	}
}

func TestHTMLDashboard(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	if err := HTMLDashboard(&buf, nil, r, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<!DOCTYPE html>") || !strings.HasSuffix(strings.TrimSpace(out), "</html>") {
		t.Fatal("not a complete html document")
	}
	for _, want := range []string{"fleet efficiency", "<svg", "cross-system comparison", "node-hours"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Each inline figure closes its wrapper.
	if strings.Count(out, "<figure>") != strings.Count(out, "</figure>") {
		t.Error("unbalanced figure tags")
	}
	if err := HTMLDashboard(&buf, nil); err == nil {
		t.Error("no realms should error")
	}
}
