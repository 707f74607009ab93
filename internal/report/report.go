// Package report renders the experiment harness's tables and figures as
// aligned text, in the layout of the paper's Tables 1-4 and Figure 4.
package report

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; cells beyond the header width are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// BarChart renders a labelled horizontal bar chart — the textual stand-in
// for Figure 4's grouped bars.
type BarChart struct {
	title string
	unit  string
	width int
	bars  []bar
}

type bar struct {
	label string
	value float64
}

// NewBarChart starts a chart. width is the maximum bar length in
// characters (default 50 when <= 0).
func NewBarChart(title, unit string, width int) *BarChart {
	if width <= 0 {
		width = 50
	}
	return &BarChart{title: title, unit: unit, width: width}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.bars = append(c.bars, bar{label: label, value: value})
}

// String renders the chart with bars scaled to the maximum value.
func (c *BarChart) String() string {
	var b strings.Builder
	if c.title != "" {
		b.WriteString(c.title)
		b.WriteByte('\n')
	}
	maxVal := 0.0
	labelW := 0
	for _, bar := range c.bars {
		if bar.value > maxVal {
			maxVal = bar.value
		}
		if len(bar.label) > labelW {
			labelW = len(bar.label)
		}
	}
	for _, bar := range c.bars {
		n := 0
		if maxVal > 0 {
			n = int(bar.value / maxVal * float64(c.width))
		}
		fmt.Fprintf(&b, "%-*s | %s %.1f %s\n", labelW, bar.label, strings.Repeat("#", n), bar.value, c.unit)
	}
	return b.String()
}

// Percent renders a fraction as a percentage with two decimals, the
// accuracy format of Table 1.
func Percent(f float64) string {
	return fmt.Sprintf("%.2f%%", 100*f)
}
