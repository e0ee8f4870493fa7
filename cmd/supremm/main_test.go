package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunSingleFigures(t *testing.T) {
	// Small, fast configurations per figure; all figures exercised.
	for _, fig := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		if err := run(4, 16, 51, fig, 0, false, false, "", "", "", "ranger"); err != nil {
			t.Errorf("fig %d: %v", fig, err)
		}
	}
}

func TestRunTableAndExtras(t *testing.T) {
	if err := run(4, 16, 51, 0, 1, false, false, "", "", "", "lonestar4"); err != nil {
		t.Errorf("table 1: %v", err)
	}
	if err := run(4, 16, 51, 0, 0, true, false, "", "", "", "ranger"); err != nil {
		t.Errorf("corr: %v", err)
	}
	if err := run(4, 16, 51, 0, 0, false, true, "", "", "", "ranger"); err != nil {
		t.Errorf("anomalies: %v", err)
	}
	if err := run(4, 16, 51, 0, 0, false, false, "gromacs", "", "", ""); err != nil {
		t.Errorf("advise: %v", err)
	}
}

func TestRunSVGOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run(3, 12, 51, 4, 0, false, false, "", dir, "", "ranger"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Errorf("svg files = %d, want >= 4", len(entries))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".svg") {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

func TestRunHTMLDashboard(t *testing.T) {
	out := t.TempDir() + "/dash.html"
	if err := run(3, 12, 51, 4, 0, false, false, "", "", out, "ranger"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("dashboard missing inline figures")
	}
}

func TestRunRejectsUnknownCluster(t *testing.T) {
	if err := run(2, 8, 1, 4, 0, false, false, "", "", "", "summit"); err == nil {
		t.Error("unknown cluster should error")
	}
}

// TestRunRejectsUnknownSelection: a -fig or -table the paper does not
// have is an error naming the valid range, not an empty exit 0.
func TestRunRejectsUnknownSelection(t *testing.T) {
	for _, c := range []struct {
		fig, table int
		want       string
	}{
		{13, 0, "2-12"}, {1, 0, "2-12"}, {-3, 0, "2-12"}, {0, 2, "takes 1"},
	} {
		err := run(1, 8, 1, c.fig, c.table, false, false, "", "", "", "ranger")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-fig %d -table %d: err = %v, want one naming %q", c.fig, c.table, err, c.want)
		}
	}
}
