package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The goldens under testdata are the command's output at the tests'
// small scale: fig-N, table-1, corr, anomalies and advise-gromacs are
// stdout; svg-html is the stdout of the -fig 4 run whose -svg files and
// -html dashboard are under testdata/svg.

// checkGolden fails t unless got is the golden file's bytes.
func checkGolden(t *testing.T, got []byte, name string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestRunSingleFigures(t *testing.T) {
	// Small, fast configurations per figure; all figures exercised.
	for _, fig := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} {
		var out bytes.Buffer
		if err := run(&out, 4, 16, 51, fig, 0, false, false, "", "", "", "ranger"); err != nil {
			t.Errorf("fig %d: %v", fig, err)
		}
		checkGolden(t, out.Bytes(), fmt.Sprintf("fig-%d.golden", fig))
	}
}

func TestRunTableAndExtras(t *testing.T) {
	for _, c := range []struct {
		golden          string
		table           int
		corr, anomalies bool
		advise, cluster string
	}{
		{"table-1.golden", 1, false, false, "", "lonestar4"},
		{"corr.golden", 0, true, false, "", "ranger"},
		{"anomalies.golden", 0, false, true, "", "ranger"},
		{"advise-gromacs.golden", 0, false, false, "gromacs", ""},
	} {
		var out bytes.Buffer
		if err := run(&out, 4, 16, 51, 0, c.table, c.corr, c.anomalies, c.advise, "", "", c.cluster); err != nil {
			t.Errorf("%s: %v", c.golden, err)
		}
		checkGolden(t, out.Bytes(), c.golden)
	}
}

func TestRunSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, 3, 12, 51, 4, 0, false, false, "", dir, "", "ranger"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, out.Bytes(), "svg-html.golden")
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
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, data, filepath.Join("svg", e.Name()))
	}
}

func TestRunHTMLDashboard(t *testing.T) {
	out := t.TempDir() + "/dash.html"
	if err := run(io.Discard, 3, 12, 51, 4, 0, false, false, "", "", out, "ranger"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("dashboard missing inline figures")
	}
	checkGolden(t, data, filepath.Join("svg", "dashboard.html"))
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink broken") }

// TestRunReportsWriteErrors: a stdout that cannot be written fails the
// run.
func TestRunReportsWriteErrors(t *testing.T) {
	if err := run(failWriter{}, 2, 8, 1, 7, 0, false, false, "", "", "", "ranger"); err == nil {
		t.Error("a failing writer should fail the run")
	}
}

func TestRunRejectsUnknownCluster(t *testing.T) {
	if err := run(io.Discard, 2, 8, 1, 4, 0, false, false, "", "", "", "summit"); err == nil {
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
		err := run(io.Discard, 1, 8, 1, c.fig, c.table, false, false, "", "", "", "ranger")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-fig %d -table %d: err = %v, want one naming %q", c.fig, c.table, err, c.want)
		}
	}
}

// TestRunRejectsNonPositiveDays: -days 0 or below is an error before
// anything is simulated or written, not a silent run of the simulator's
// default length.
func TestRunRejectsNonPositiveDays(t *testing.T) {
	for _, days := range []int{0, -1} {
		var out bytes.Buffer
		err := run(&out, days, 4, 1, 8, 0, false, false, "", "", "", "ranger")
		if err == nil || err.Error() != fmt.Sprintf("-days %d: the simulation needs at least 1 day", days) || out.Len() != 0 {
			t.Errorf("-days %d: err = %v, stdout %q; want the error and nothing written", days, err, out.String())
		}
	}
}
