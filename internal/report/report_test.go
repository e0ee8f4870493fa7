package report

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"supremm/internal/cluster"
	"supremm/internal/core"
	"supremm/internal/sim"
	"supremm/internal/stats"
)

var (
	fixtureOnce sync.Once
	realm       *core.Realm
)

func testRealm(t *testing.T) *core.Realm {
	t.Helper()
	fixtureOnce.Do(func() {
		cc := cluster.RangerConfig().Scaled(48)
		cfg := sim.DefaultConfig(cc, 7)
		cfg.DurationMin = 14 * 24 * 60
		res, err := sim.Run(cfg)
		if err != nil {
			panic(err)
		}
		realm = core.NewRealm(cc.Name, cc.CoresPerNode(), cc.MemPerNodeGB, cc.PeakTFlops(), res.Store.AsSet(), res.Series)
	})
	return realm
}

func TestTableRender(t *testing.T) {
	tab := NewTable("title", "a", "bb", "ccc")
	tab.AddRow("1", "2")
	tab.AddRow("longvalue", "x", "y")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "longvalue") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align: "bb" and "x" start at the same offset.
	hdr := lines[1]
	row := lines[4]
	if strings.Index(hdr, "bb") != strings.Index(row, "x") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "name", "value")
	tab.AddRow(`has,comma`, `has"quote`)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "name,value\n\"has,comma\",\"has\"\"quote\"\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

func TestTableAddRowf(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRowf("%d\t%.1f", 3, 2.5)
	if tab.Rows[0][0] != "3" || tab.Rows[0][1] != "2.5" {
		t.Errorf("AddRowf row = %v", tab.Rows[0])
	}
}

func TestRadarMarksUnity(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	if err := Radar(&buf, r.TopUserProfiles(1)[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|") {
		t.Error("no unity marker in radar output")
	}
	if !strings.Contains(out, "cpu_idle") || !strings.Contains(out, "cpu_flops") {
		t.Errorf("radar missing metrics:\n%s", out)
	}
	// One row per key metric plus header.
	if got := strings.Count(out, "x "); got < 8 {
		t.Errorf("radar rows = %d, want >= 8:\n%s", got, out)
	}
}

func TestScatterRender(t *testing.T) {
	sc := &Scatter{
		Xs: []float64{1, 10, 100, 1000}, Ys: []float64{0.5, 2, 30, 100},
		LogX: true, LogY: true, MarkIdx: 2, RefLineSlope: 0.1,
		XLabel: "x", YLabel: "y", Width: 40, Height: 10,
	}
	var buf bytes.Buffer
	if err := sc.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "+") || !strings.Contains(out, "O") {
		t.Errorf("scatter missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("scatter missing reference line")
	}
	// Errors on bad input.
	bad := &Scatter{Xs: []float64{1}, Ys: []float64{}}
	if err := bad.Render(&buf); err == nil {
		t.Error("mismatched series should error")
	}
}

func TestTimeSeriesRender(t *testing.T) {
	pts := []core.TimePoint{{Time: 0, Value: 1}, {Time: 86400, Value: 5}, {Time: 172800, Value: 3}}
	var buf bytes.Buffer
	if err := TimeSeries(&buf, "title", pts, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "#") {
		t.Errorf("timeseries output:\n%s", out)
	}
	if err := TimeSeries(&buf, "t", nil, 5); err == nil {
		t.Error("empty series should error")
	}
}

func TestDensityRender(t *testing.T) {
	kde := stats.NewKDE([]float64{1, 2, 2, 3, 3, 3, 4})
	curve := kde.SupportCurve(64)
	var buf bytes.Buffer
	err := Density(&buf, "d", "x", map[string][]stats.CurvePoint{"a": curve, "b": curve}, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "*") {
		t.Errorf("density missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Error("density missing legend")
	}
	if err := Density(&buf, "d", "x", nil, 40, 8); err == nil {
		t.Error("no curves should error")
	}
}

func TestAllFigureRenderers(t *testing.T) {
	r := testRealm(t)
	var buf bytes.Buffer
	tab, err := r.Persistence(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    func() error
	}{
		{"Fig2", func() error { return Fig2(&buf, r, 3) }},
		{"Fig3", func() error { return Fig3(&buf, []*core.Realm{r}, []string{"namd", "amber", "gromacs"}) }},
		{"Fig4", func() error { return Fig4(&buf, r) }},
		{"Fig5", func() error { return Fig5(&buf, r) }},
		{"Table1", func() error { return Table1(&buf, tab) }},
		{"Fig6", func() error { return Fig6(&buf, r.Cluster, tab) }},
		{"Fig7", func() error { return Fig7(&buf, r) }},
		{"Fig8", func() error { return Fig8(&buf, r) }},
		{"Fig9", func() error { return Fig9(&buf, r) }},
		{"Fig10", func() error { return Fig10(&buf, r) }},
		{"Fig11", func() error { return Fig11(&buf, r) }},
		{"Fig12", func() error { return Fig12(&buf, r) }},
		{"Corr", func() error { return CorrelationReport(&buf, r) }},
	}
	for _, c := range cases {
		buf.Reset()
		if err := c.f(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty output", c.name)
		}
	}
}

func TestTable1ContainsAllOffsets(t *testing.T) {
	r := testRealm(t)
	tab, err := r.Persistence(10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Table1(&buf, tab); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, off := range []string{"10", "30", "100", "500", "1000"} {
		if !strings.Contains(out, off) {
			t.Errorf("Table 1 missing offset %s:\n%s", off, out)
		}
	}
	if !strings.Contains(out, "fit R^2") {
		t.Error("Table 1 missing fit row")
	}
}
