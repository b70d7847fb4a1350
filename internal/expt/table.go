// Package expt defines the reproduction experiment suite: one experiment
// per quantitative claim of the paper (Registry's Claim fields name them),
// each emitting paper-style tables and machine-readable CSV. The root
// bench_test.go and cmd/ccbench expose every experiment.
package expt

import (
	"fmt"
	"strings"
)

// Table is one result table of an experiment.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CSV returns the table in CSV form (header first).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Header))
	for i, h := range t.Header {
		cells[i] = esc(h)
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteString("\n")
	for _, r := range t.Rows {
		cells = cells[:0]
		for _, c := range r {
			cells = append(cells, esc(c))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment is one reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper claim being checked
	Run   func(cfg Config) ([]*Table, error)
}

// Config scales the experiment suite.
type Config struct {
	// Scale multiplies workload sizes: 1.0 is the full suite; tests use
	// less.
	Scale float64
	// Seed drives workload generation (never the algorithms themselves).
	Seed uint64
}

func (c Config) scaled(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 16 {
		s = 16
	}
	return s
}
