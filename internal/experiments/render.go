package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Grid is a labeled table of values, the common shape of the paper's bar
// charts (Figs. 3–5) and tables.
type Grid struct {
	Title string
	// RowHeader labels the row dimension (e.g. "strategy").
	RowHeader string
	Rows      []string
	Cols      []string
	// Cells[r][c] is the value for Rows[r] x Cols[c].
	Cells [][]float64
	// Percent renders values as percentages with one decimal.
	Percent bool
}

// WriteText renders the grid as an aligned text table.
func (g *Grid) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", g.Title); err != nil {
		return err
	}
	width := len(g.RowHeader)
	for _, r := range g.Rows {
		if len(r) > width {
			width = len(r)
		}
	}
	header := fmt.Sprintf("%-*s", width, g.RowHeader)
	for _, c := range g.Cols {
		header += fmt.Sprintf(" %10s", c)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for r, name := range g.Rows {
		line := fmt.Sprintf("%-*s", width, name)
		for c := range g.Cols {
			line += " " + g.formatCell(g.Cells[r][c])
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func (g *Grid) formatCell(v float64) string {
	if math.IsNaN(v) {
		return fmt.Sprintf("%10s", "-")
	}
	if g.Percent {
		return fmt.Sprintf("%9.1f%%", v)
	}
	return fmt.Sprintf("%10.3f", v)
}

// Series is a set of named curves over a shared X axis, the shape of the
// paper's line charts (Figs. 6–7).
type Series struct {
	Title  string
	XLabel string
	X      []float64
	Names  []string
	// Y[s][i] is the value of curve s at X[i].
	Y [][]float64
}

// WriteText renders the series as a column-per-curve table.
func (s *Series) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", s.Title); err != nil {
		return err
	}
	header := fmt.Sprintf("%10s", s.XLabel)
	for _, n := range s.Names {
		header += fmt.Sprintf(" %10s", n)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for i, x := range s.X {
		line := fmt.Sprintf("%10g", x)
		for si := range s.Names {
			v := s.Y[si][i]
			if math.IsNaN(v) {
				line += fmt.Sprintf(" %10s", "-")
			} else {
				line += fmt.Sprintf(" %10.3f", v)
			}
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
