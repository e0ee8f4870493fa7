package report

import (
	"bytes"
	"strings"
	"testing"

	"supremm/internal/core"
	"supremm/internal/stats"
)

func checkSVG(t *testing.T, out string) {
	t.Helper()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatalf("not a complete svg document:\n%.120s...", out)
	}
	// Basic well-formedness: every opened quote closes (even count).
	if strings.Count(out, `"`)%2 != 0 {
		t.Error("odd quote count")
	}
}

func TestSVGScatter(t *testing.T) {
	var buf bytes.Buffer
	err := SVGScatter(&buf, "t", "x", "y",
		[]float64{1, 10, 100}, []float64{0.5, 5, 60}, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkSVG(t, out)
	if strings.Count(out, "<circle") != 3 {
		t.Errorf("circles = %d", strings.Count(out, "<circle"))
	}
	if !strings.Contains(out, `stroke="red"`) {
		t.Error("missing reference line and mark")
	}
	n := buf.Len()
	if err := SVGScatter(&buf, "t", "x", "y", []float64{1}, nil, 0, -1); err == nil {
		t.Error("mismatched series should error")
	}
	if buf.Len() != n {
		t.Error("a refused scatter wrote to the buffer")
	}
}

func TestSVGTimeSeries(t *testing.T) {
	var buf bytes.Buffer
	series := map[string][]core.TimePoint{
		"a": {{Time: 0, Value: 1}, {Time: 86400, Value: 3}},
		"b": {{Time: 0, Value: 2}, {Time: 86400, Value: 1}},
	}
	if err := SVGTimeSeries(&buf, "t", "v", series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkSVG(t, out)
	if strings.Count(out, "<path") != 2 {
		t.Errorf("paths = %d", strings.Count(out, "<path"))
	}
	if err := SVGTimeSeries(&buf, "t", "v", nil); err == nil {
		t.Error("empty series map should error")
	}
	if err := SVGTimeSeries(&buf, "t", "v", map[string][]core.TimePoint{"x": {}}); err == nil {
		t.Error("empty series should error")
	}
}

func TestSVGDensity(t *testing.T) {
	kde := stats.NewKDE([]float64{1, 2, 2, 3})
	var buf bytes.Buffer
	err := SVGDensity(&buf, "t", "x", map[string][]stats.CurvePoint{
		"black": kde.SupportCurve(64), "red": kde.SupportCurve(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSVG(t, buf.String())
	if err := SVGDensity(&buf, "t", "x", nil); err == nil {
		t.Error("no curves should error")
	}
	n := buf.Len()
	flat := []stats.CurvePoint{{X: 1, Density: 0}, {X: 1, Density: 0}}
	if err := SVGDensity(&buf, "t", "x", map[string][]stats.CurvePoint{"flat": flat}); err == nil {
		t.Error("degenerate curve should error")
	}
	if buf.Len() != n {
		t.Error("a refused density wrote to the buffer")
	}
}

func TestSVGRadar(t *testing.T) {
	r := testRealm(t)
	p := r.TopUserProfiles(1)[0]
	var buf bytes.Buffer
	if err := SVGRadar(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	checkSVG(t, out)
	// Two polygons: the unity reference and the profile.
	if strings.Count(out, "<polygon") != 2 {
		t.Errorf("polygons = %d", strings.Count(out, "<polygon"))
	}
	// All eight metric labels present.
	if strings.Count(out, "cpu_") < 2 {
		t.Error("metric labels missing")
	}
	if err := SVGRadar(&buf, core.Profile{}); err == nil {
		t.Error("radar without metrics should error")
	}
}

func TestSVGFiguresProducesAllFiles(t *testing.T) {
	r := testRealm(t)
	files := map[string]string{}
	emit := func(name string, svg []byte) error {
		files[name] = string(svg)
		return nil
	}
	if err := SVGFigures(r, emit); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig2_ranger.svg", "fig4_ranger.svg", "fig8_9_11_ranger.svg", "fig10_ranger.svg", "fig12_ranger.svg"} {
		f, ok := files[want]
		if !ok {
			t.Errorf("missing %s (have %v)", want, len(files))
			continue
		}
		checkSVG(t, f)
	}
}
