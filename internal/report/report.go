// Package report renders experiment results as aligned ASCII tables and CSV
// series. The benchmark harness and the command-line tools share these
// renderers so every table and figure of the E1–E10 experiments is
// regenerated by code, not transcribed by hand.
package report

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a simple header + rows structure.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// AddCountRows appends one "key, count" row per entry of counts, in sorted
// key order — the deterministic way to render a counter map. Go randomises
// map iteration order per run, so ranging over the map directly would make
// two renders of the same result differ byte-wise.
func AddCountRows[V int | int64](t *Table, counts map[string]V) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.AddRow(k, counts[k])
	}
}

// Render returns the aligned ASCII rendering.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table in CSV form (no quoting beyond necessity; cells with
// commas are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes with three decimals, huge magnitudes in scientific notation,
// and explicit NaN/±Inf (fixed-point formatting of non-finite or ≥1e15
// values would otherwise produce garbage cells).
func FormatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.Abs(v) >= 1e15:
		return strconv.FormatFloat(v, 'g', 6, 64)
	case v == float64(int64(v)):
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'f', 3, 64)
	}
}

// Series is a named (x, y) sequence — one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series over a shared x axis, rendered as a column table
// (the textual equivalent of a paper figure).
type Figure struct {
	Title  string
	XLabel string
	series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, xLabel string) *Figure {
	return &Figure{Title: title, XLabel: xLabel}
}

// AddSeries appends a series and returns it for population.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.series = append(f.series, s)
	return s
}

// Render prints the figure as a table: x column plus one column per series.
// Series are aligned by x index (they are expected to share the sweep).
func (f *Figure) Render() string {
	headers := []string{f.XLabel}
	for _, s := range f.series {
		headers = append(headers, s.Name)
	}
	t := NewTable(f.Title, headers...)
	if len(f.series) == 0 {
		return t.Render()
	}
	n := len(f.series[0].X)
	for i := 0; i < n; i++ {
		row := make([]interface{}, 0, len(headers))
		row = append(row, f.series[0].X[i])
		for _, s := range f.series {
			if i < len(s.Y) {
				row = append(row, s.Y[i])
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}
