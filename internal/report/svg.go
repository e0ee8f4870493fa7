package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"supremm/internal/core"
	"supremm/internal/stats"
)

// SVG renderers: publication-style vector versions of the paper's
// figures, emitted with nothing but the standard library. Each renderer
// writes a self-contained <svg> document.

const (
	svgW, svgH             = 640, 420
	svgMarginL, svgMarginB = 60, 40
	svgMarginT, svgMarginR = 30, 20
)

type svgCanvas struct {
	sb   strings.Builder
	w, h int
}

func newSVG(title string) *svgCanvas {
	c := &svgCanvas{w: svgW, h: svgH}
	fmt.Fprintf(&c.sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		c.w, c.h, c.w, c.h)
	c.sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&c.sb, `<text x="%d" y="20" font-family="sans-serif" font-size="14" font-weight="bold">%s</text>`+"\n",
		svgMarginL, svgEscape(title))
	return c
}

func svgEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// plot area in pixel coordinates
func (c *svgCanvas) plotRect() (x0, y0, x1, y1 float64) {
	return svgMarginL, svgMarginT, float64(c.w - svgMarginR), float64(c.h - svgMarginB)
}

// axes draws the frame and labels.
func (c *svgCanvas) axes(xlabel, ylabel string, xmin, xmax, ymin, ymax float64) {
	x0, y0, x1, y1 := c.plotRect()
	fmt.Fprintf(&c.sb, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="black"/>`+"\n",
		x0, y0, x1-x0, y1-y0)
	fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		(x0+x1)/2, float64(c.h)-8, svgEscape(xlabel))
	fmt.Fprintf(&c.sb, `<text x="14" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
		(y0+y1)/2, (y0+y1)/2, svgEscape(ylabel))
	// Min/max tick labels.
	fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10">%s</text>`+"\n",
		x0, y1+14, svgNum(xmin))
	fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
		x1, y1+14, svgNum(xmax))
	fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
		x0-4, y1, svgNum(ymin))
	fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`+"\n",
		x0-4, y0+10, svgNum(ymax))
}

func svgNum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 10000 || math.Abs(v) < 0.01:
		return fmt.Sprintf("%.1e", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func (c *svgCanvas) finish(w io.Writer) error {
	c.sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, c.sb.String())
	return err
}

// SVGScatter renders a log-log scatter with a reference line — the
// vector Fig 4.
func SVGScatter(w io.Writer, title, xlabel, ylabel string, xs, ys []float64, refSlope float64, markIdx int) error {
	if len(xs) != len(ys) || len(xs) == 0 {
		return fmt.Errorf("report: svg scatter needs matching non-empty series")
	}
	c := newSVG(title)
	tx := func(v float64) float64 { return math.Log10(math.Max(v, 1e-2)) }
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for i := range xs {
		xmin, xmax = math.Min(xmin, tx(xs[i])), math.Max(xmax, tx(xs[i]))
		ymin, ymax = math.Min(ymin, tx(ys[i])), math.Max(ymax, tx(ys[i]))
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	x0, y0, x1, y1 := c.plotRect()
	px := func(v float64) float64 { return x0 + (tx(v)-xmin)/(xmax-xmin)*(x1-x0) }
	py := func(v float64) float64 { return y1 - (tx(v)-ymin)/(ymax-ymin)*(y1-y0) }
	c.axes(xlabel+" (log)", ylabel+" (log)", math.Pow(10, xmin), math.Pow(10, xmax),
		math.Pow(10, ymin), math.Pow(10, ymax))
	if refSlope > 0 {
		// y = refSlope * x is a straight line in log-log space.
		lx0, lx1 := math.Pow(10, xmin), math.Pow(10, xmax)
		fmt.Fprintf(&c.sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="red" stroke-dasharray="4 3"/>`+"\n",
			px(lx0), py(refSlope*lx0), px(lx1), py(refSlope*lx1))
	}
	for i := range xs {
		fill := "steelblue"
		r := 3.0
		if i == markIdx {
			fill, r = "red", 6
		}
		fmt.Fprintf(&c.sb, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="0.7"/>`+"\n",
			px(xs[i]), py(ys[i]), r, fill)
	}
	return c.finish(w)
}

// SVGTimeSeries renders one or more named series against time — the
// vector Figs 8, 9, 11.
func SVGTimeSeries(w io.Writer, title, ylabel string, series map[string][]core.TimePoint) error {
	if len(series) == 0 {
		return fmt.Errorf("report: svg timeseries needs at least one series")
	}
	names := make([]string, 0, len(series))
	for n := range series {
		if len(series[n]) == 0 {
			return fmt.Errorf("report: empty series %q", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	c := newSVG(title)
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymax := 0.0
	for _, n := range names {
		for _, p := range series[n] {
			xmin = math.Min(xmin, float64(p.Time))
			xmax = math.Max(xmax, float64(p.Time))
			ymax = math.Max(ymax, p.Value)
		}
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == 0 {
		ymax = 1
	}
	x0, y0, x1, y1 := c.plotRect()
	px := func(t float64) float64 { return x0 + (t-xmin)/(xmax-xmin)*(x1-x0) }
	py := func(v float64) float64 { return y1 - v/ymax*(y1-y0) }
	c.axes("day", ylabel, 0, (xmax-xmin)/86400, 0, ymax)
	colors := []string{"steelblue", "darkred", "seagreen", "darkorange"}
	for ni, n := range names {
		var path strings.Builder
		for i, p := range series[n] {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, px(float64(p.Time)), py(p.Value))
		}
		fmt.Fprintf(&c.sb, `<path d="%s" fill="none" stroke="%s" stroke-width="1.2"/>`+"\n",
			strings.TrimSpace(path.String()), colors[ni%len(colors)])
		fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" fill="%s">%s</text>`+"\n",
			x1-100, y0+14+float64(ni)*13, colors[ni%len(colors)], svgEscape(n))
	}
	return c.finish(w)
}

// SVGDensity renders KDE curves — the vector Figs 10 and 12.
func SVGDensity(w io.Writer, title, xlabel string, curves map[string][]stats.CurvePoint) error {
	if len(curves) == 0 {
		return fmt.Errorf("report: svg density needs curves")
	}
	names := make([]string, 0, len(curves))
	for n := range curves {
		if len(curves[n]) == 0 {
			return fmt.Errorf("report: empty curve %q", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	c := newSVG(title)
	xmin, xmax, dmax := math.Inf(1), math.Inf(-1), 0.0
	for _, n := range names {
		for _, p := range curves[n] {
			xmin, xmax = math.Min(xmin, p.X), math.Max(xmax, p.X)
			dmax = math.Max(dmax, p.Density)
		}
	}
	if xmax == xmin || dmax == 0 {
		return fmt.Errorf("report: degenerate density curves")
	}
	x0, y0, x1, y1 := c.plotRect()
	px := func(v float64) float64 { return x0 + (v-xmin)/(xmax-xmin)*(x1-x0) }
	py := func(v float64) float64 { return y1 - v/dmax*(y1-y0) }
	c.axes(xlabel, "density", xmin, xmax, 0, dmax)
	colors := []string{"black", "red", "steelblue"}
	for ni, n := range names {
		var path strings.Builder
		for i, p := range curves[n] {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&path, "%s%.1f %.1f ", cmd, px(p.X), py(p.Density))
		}
		fmt.Fprintf(&c.sb, `<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n",
			strings.TrimSpace(path.String()), colors[ni%len(colors)])
		fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" fill="%s">%s</text>`+"\n",
			x1-120, y0+14+float64(ni)*13, colors[ni%len(colors)], svgEscape(n))
	}
	return c.finish(w)
}

// SVGRadar renders a normalized profile as a true radar polygon — the
// vector Figs 2, 3 and 5. The unity octagon (fleet mean) is drawn as a
// dashed reference.
func SVGRadar(w io.Writer, p core.Profile) error {
	metrics := sortedMetrics(p.Normalized)
	if len(metrics) < 3 {
		return fmt.Errorf("report: radar needs >= 3 metrics")
	}
	title := fmt.Sprintf("%s on %s (%d jobs, %.0f node-hours)", p.Key, p.Cluster, p.N, p.NodeHours)
	c := newSVG(title)
	cx, cy := float64(c.w)/2, float64(c.h)/2+10
	maxR := math.Min(float64(c.w), float64(c.h))/2 - 70
	// Radial scale: the max axis value or 2.0, whichever is larger.
	scaleMax := math.Max(2, p.MaxAxis()*1.1)
	angle := func(i int) float64 {
		return 2*math.Pi*float64(i)/float64(len(metrics)) - math.Pi/2
	}
	pt := func(i int, v float64) (float64, float64) {
		r := v / scaleMax * maxR
		return cx + r*math.Cos(angle(i)), cy + r*math.Sin(angle(i))
	}
	// Spokes and labels.
	for i, m := range metrics {
		sx, sy := pt(i, scaleMax)
		fmt.Fprintf(&c.sb, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ccc"/>`+"\n", cx, cy, sx, sy)
		lx, ly := pt(i, scaleMax*1.12)
		anchor := "middle"
		if lx > cx+5 {
			anchor = "start"
		} else if lx < cx-5 {
			anchor = "end"
		}
		fmt.Fprintf(&c.sb, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="%s">%s</text>`+"\n",
			lx, ly, anchor, svgEscape(string(m)))
	}
	polygon := func(val func(i int) float64, style string) {
		var pts strings.Builder
		for i := range metrics {
			x, y := pt(i, val(i))
			fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
		}
		fmt.Fprintf(&c.sb, `<polygon points="%s" %s/>`+"\n", strings.TrimSpace(pts.String()), style)
	}
	// Unity reference (the "perfect octagon" of the average user).
	polygon(func(int) float64 { return 1 },
		`fill="none" stroke="gray" stroke-dasharray="4 3"`)
	// The profile itself.
	polygon(func(i int) float64 {
		v := p.Normalized[metrics[i]]
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		if v > scaleMax {
			return scaleMax
		}
		return v
	}, `fill="steelblue" fill-opacity="0.35" stroke="steelblue" stroke-width="1.5"`)
	return c.finish(w)
}

// SVGFigures writes the headline vector figures for a realm into the
// writer-producing callback (one writer per file name).
func SVGFigures(r *core.Realm, open func(name string) (io.WriteCloser, error)) error {
	write := func(name string, render func(io.Writer) error) error {
		wc, err := open(name)
		if err != nil {
			return err
		}
		if err := render(wc); err != nil {
			_ = wc.Close() // render error wins; close is cleanup here
			return err
		}
		return wc.Close()
	}
	// Fig 2: heaviest user's radar.
	profiles := r.TopUserProfiles(1)
	if len(profiles) > 0 {
		if err := write("fig2_"+r.Cluster+".svg", func(w io.Writer) error {
			return SVGRadar(w, profiles[0])
		}); err != nil {
			return err
		}
	}
	// Fig 4: efficiency scatter.
	eff := r.EfficiencyReport()
	if len(eff) > 0 {
		xs := make([]float64, len(eff))
		ys := make([]float64, len(eff))
		mark := -1
		worst := core.WorstOf(eff, 1, 50)
		for i, u := range eff {
			xs[i], ys[i] = u.NodeHours, u.WastedNodeHours
			if len(worst) > 0 && u.User == worst[0].User {
				mark = i
			}
		}
		if err := write("fig4_"+r.Cluster+".svg", func(w io.Writer) error {
			return SVGScatter(w, fmt.Sprintf("Fig 4: %s wasted node-hours", r.Cluster),
				"node-hours", "wasted node-hours", xs, ys, 1-r.FleetEfficiency(), mark)
		}); err != nil {
			return err
		}
	}
	// Figs 8/9/11: time series.
	if err := write("fig8_9_11_"+r.Cluster+".svg", func(w io.Writer) error {
		return SVGTimeSeries(w, fmt.Sprintf("Figs 8/9/11: %s system series (daily means)", r.Cluster),
			"value", map[string][]core.TimePoint{
				"active nodes": r.SeriesDaily("active_nodes"),
				"TFLOP/s":      r.SeriesDaily("total_tflops"),
				"mem GB/node":  r.SeriesDaily("mem_used"),
			})
	}); err != nil {
		return err
	}
	// Fig 10: flops KDE.
	_, flopsCurve := r.FlopsDistribution(256)
	if err := write("fig10_"+r.Cluster+".svg", func(w io.Writer) error {
		return SVGDensity(w, fmt.Sprintf("Fig 10: %s FLOPS distribution", r.Cluster),
			"TFLOP/s", map[string][]stats.CurvePoint{"flops": flopsCurve})
	}); err != nil {
		return err
	}
	// Fig 12: memory KDEs.
	used, maxCurve := r.MemoryDistribution(256)
	if used != nil {
		if err := write("fig12_"+r.Cluster+".svg", func(w io.Writer) error {
			return SVGDensity(w, fmt.Sprintf("Fig 12: %s job memory distributions", r.Cluster),
				"GB per node", map[string][]stats.CurvePoint{"mem_used": used, "mem_used_max": maxCurve})
		}); err != nil {
			return err
		}
	}
	return nil
}
