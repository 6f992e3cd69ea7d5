// Package report renders the experiment outputs as aligned text tables,
// CSV files and simple ASCII sparkline charts, so every table and figure
// of the paper can be regenerated as a terminal- and diff-friendly
// artifact.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	// Title is printed above the table.
	Title string
	// Header holds the column names.
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; cells beyond the header width are dropped and
// missing cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// WriteText renders the aligned table.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell + strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteCSV renders the table as CSV with minimal quoting.
func (t *Table) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Chart renders multi-series time data as rows of percentages plus a
// trend sparkline, the textual stand-in for the paper's line plots.
type Chart struct {
	// Title is printed above the chart.
	Title string
	// XLabels are the time axis labels.
	XLabels []string
	series  []chartSeries
}

type chartSeries struct {
	name   string
	values []float64
}

// NewChart creates a chart over the given x labels.
func NewChart(title string, xLabels []string) *Chart {
	return &Chart{Title: title, XLabels: xLabels}
}

// AddSeries appends one named series; its length should match XLabels.
func (c *Chart) AddSeries(name string, values []float64) {
	c.series = append(c.series, chartSeries{name: name, values: values})
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// WriteText renders each series as "name  v0 v1 ... vn  sparkline".
func (c *Chart) WriteText(w io.Writer) error {
	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title + "\n")
	}
	nameW := 0
	for _, s := range c.series {
		if len(s.name) > nameW {
			nameW = len(s.name)
		}
	}
	sb.WriteString(strings.Repeat(" ", nameW) + " ")
	for _, x := range c.XLabels {
		fmt.Fprintf(&sb, " %7s", x)
	}
	sb.WriteString("\n")
	for _, s := range c.series {
		sb.WriteString(s.name + strings.Repeat(" ", nameW-len(s.name)) + " ")
		for _, v := range s.values {
			fmt.Fprintf(&sb, " %6.2f%%", v)
		}
		sb.WriteString("  " + sparkline(s.values) + "\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// sparkline maps values onto block glyphs scaled per series.
func sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}
