package report

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"supremm/internal/core"
	"supremm/internal/stats"
	"supremm/internal/store"
)

// Radar renders a profile as a labelled bar view — the textual analogue
// of the paper's radar charts, with one row per metric, the fleet-mean
// line at 1.0 marked with '|'.
func Radar(b *bytes.Buffer, p core.Profile) {
	fmt.Fprintf(b, "profile %s on %s  (%d jobs, %.0f node-hours)\n",
		p.Key, p.Cluster, p.N, p.NodeHours)
	metrics := sortedMetrics(p.Normalized)
	scale := 20.0 // columns per 1.0x
	maxCols := 64
	for _, m := range metrics {
		v := p.Normalized[m]
		cols := int(v * scale)
		if cols > maxCols {
			cols = maxCols
		}
		if cols < 0 || math.IsNaN(v) {
			cols = 0
		}
		bar := strings.Repeat("#", cols)
		// Mark the unity line.
		unity := int(scale)
		line := bar
		if len(line) < unity {
			line += strings.Repeat(" ", unity-len(line))
		}
		line = line[:unity] + "|" + line[unity:]
		fmt.Fprintf(b, "  %-18s %6.2fx %s\n", m, v, line)
	}
}

func sortedMetrics(m map[store.Metric]float64) []store.Metric {
	out := make([]store.Metric, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Scatter renders an XY point cloud as an ASCII grid — used for Fig 4's
// node-hours vs wasted node-hours plot. Log-scale axes clamp at
// logFloor when values are zero.
type Scatter struct {
	Title        string
	XLabel       string
	YLabel       string
	Width        int
	Height       int
	LogX, LogY   bool
	Xs, Ys       []float64
	MarkIdx      int     // index drawn as 'O' (the "circled user"); -1 none
	RefLineSlope float64 // y = slope*x reference (efficiency line); 0 none
}

// Render draws the scatter into b.
func (s *Scatter) Render(b *bytes.Buffer) error {
	if len(s.Xs) != len(s.Ys) || len(s.Xs) == 0 {
		return fmt.Errorf("report: scatter needs matching non-empty series")
	}
	width, height := s.Width, s.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 20
	}
	tx := func(v float64) float64 {
		if s.LogX {
			return math.Log10(math.Max(v, 1e-3))
		}
		return v
	}
	ty := func(v float64) float64 {
		if s.LogY {
			return math.Log10(math.Max(v, 1e-3))
		}
		return v
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for i := range s.Xs {
		x, y := tx(s.Xs[i]), ty(s.Ys[i])
		xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
		ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	place := func(xv, yv float64, ch byte) {
		cx := int((tx(xv) - xmin) / (xmax - xmin) * float64(width-1))
		cy := int((ty(yv) - ymin) / (ymax - ymin) * float64(height-1))
		row := height - 1 - cy
		if row >= 0 && row < height && cx >= 0 && cx < width {
			grid[row][cx] = ch
		}
	}
	if s.RefLineSlope > 0 {
		for c := 0; c < width; c++ {
			xv := xmin + (xmax-xmin)*float64(c)/float64(width-1)
			realX := xv
			if s.LogX {
				realX = math.Pow(10, xv)
			}
			place(realX, s.RefLineSlope*realX, '-')
		}
	}
	for i := range s.Xs {
		place(s.Xs[i], s.Ys[i], '+')
	}
	if s.MarkIdx >= 0 && s.MarkIdx < len(s.Xs) {
		place(s.Xs[s.MarkIdx], s.Ys[s.MarkIdx], 'O')
	}
	if s.Title != "" {
		b.WriteString(s.Title + "\n")
	}
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(b, "   x: %s   y: %s\n", s.XLabel, s.YLabel)
	return nil
}

// TimeSeries renders a downsampled series as a column chart — the view
// of Figs 8, 9 and 11.
func TimeSeries(b *bytes.Buffer, title string, points []core.TimePoint, height int) error {
	if len(points) == 0 {
		return fmt.Errorf("report: empty time series")
	}
	if height <= 0 {
		height = 12
	}
	ymax := math.Inf(-1)
	for _, p := range points {
		if p.Value > ymax {
			ymax = p.Value
		}
	}
	if ymax <= 0 {
		ymax = 1
	}
	b.WriteString(title + "\n")
	for r := height; r >= 1; r-- {
		threshold := ymax * float64(r) / float64(height)
		lineLabel := "        "
		if r == height {
			lineLabel = fmt.Sprintf("%7.1f ", ymax)
		}
		b.WriteString(lineLabel + "|")
		for _, p := range points {
			if p.Value >= threshold-1e-12 {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("    0.0 +" + strings.Repeat("-", len(points)) + "\n")
	return nil
}

// Density renders a KDE curve — the view of Figs 10 and 12. Multiple
// curves overlay with distinct glyphs.
func Density(b *bytes.Buffer, title, xlabel string, curves map[string][]stats.CurvePoint, width, height int) error {
	if len(curves) == 0 {
		return fmt.Errorf("report: no density curves")
	}
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 14
	}
	glyphs := []byte{'#', '*', 'o', '^'}
	names := make([]string, 0, len(curves))
	for n := range curves {
		names = append(names, n)
	}
	sort.Strings(names)

	xmin, xmax, dmax := math.Inf(1), math.Inf(-1), 0.0
	for _, n := range names {
		for _, p := range curves[n] {
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			dmax = math.Max(dmax, p.Density)
		}
	}
	if xmax == xmin || dmax == 0 {
		return fmt.Errorf("report: degenerate density curves")
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for gi, n := range names {
		g := glyphs[gi%len(glyphs)]
		for _, p := range curves[n] {
			cx := int((p.X - xmin) / (xmax - xmin) * float64(width-1))
			cy := int(p.Density / dmax * float64(height-1))
			row := height - 1 - cy
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = g
			}
		}
	}
	b.WriteString(title + "\n")
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(b, "   %g%s%g  (%s)   legend:", xmin, strings.Repeat(" ", width-18), xmax, xlabel)
	for gi, n := range names {
		fmt.Fprintf(b, " %c=%s", glyphs[gi%len(glyphs)], n)
	}
	b.WriteByte('\n')
	return nil
}
