// Package stats provides the small statistical and table-formatting helpers
// the experiment harness uses: means and percentiles over repeated runs
// (the paper runs each experiment 10× and reports averages, §V) and
// fixed-width text tables for the figure/table outputs.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile of xs (p in [0, 100]) by linear
// interpolation between closest ranks, 0 for empty input. xs need not be
// sorted; the input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Table accumulates rows and renders an aligned fixed-width text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	ncol := len(t.header)
	for _, r := range t.rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(row) {
				c = row[i]
			}
			fmt.Fprintf(&sb, "%-*s", width[i]+2, c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
