// Package report renders the analytics layer's outputs as text: aligned
// tables, CSV, radar profiles, scatter plots, time series and density
// curves as ASCII charts. It is the stand-in for XDMoD's chart UI — every
// figure of the paper has a renderer here that emits both the underlying
// series (CSV) and a human-readable view.
//
// Every renderer appends to a bytes.Buffer its caller owns and never
// writes anywhere that can fail, so none has a write error to report: a
// renderer's error is about its data. The caller makes the one write
// that can fail (stdout, a file, an HTTP body) and checks it, after
// writing what the buffer holds when a renderer failed part-way.
package report

import (
	"bytes"
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

// Render appends the aligned table to b.
func (t *Table) Render(b *bytes.Buffer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w2 := range widths {
		total += w2 + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// WriteCSV appends the table to b as CSV with a header row. Cells
// containing commas or quotes are quoted per RFC 4180.
func (t *Table) WriteCSV(b *bytes.Buffer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
