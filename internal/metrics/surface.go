package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Surface is a labeled 2-D grid of one metric across two sweep axes — the
// campaign runner's p99.9 heatmaps and degradation surfaces. Values are
// dense (every row×col cell holds a number; untouched cells read 0), so the
// JSON form stays NaN-free and byte-stable.
type Surface struct {
	Name   string      `json:"name"`
	Unit   string      `json:"unit,omitempty"`
	Rows   []string    `json:"rows"`
	Cols   []string    `json:"cols"`
	Values [][]float64 `json:"values"` // [row][col]
}

// NewSurface allocates a zeroed rows×cols surface.
func NewSurface(name, unit string, rows, cols []string) *Surface {
	s := &Surface{Name: name, Unit: unit, Rows: rows, Cols: cols}
	s.Values = make([][]float64, len(rows))
	for i := range s.Values {
		s.Values[i] = make([]float64, len(cols))
	}
	return s
}

// Set stores one cell; out-of-range indices panic (an enumeration bug, not a
// runtime condition).
func (s *Surface) Set(row, col int, v float64) { s.Values[row][col] = v }

// At returns one cell.
func (s *Surface) At(row, col int) float64 { return s.Values[row][col] }

// shades orders the ASCII heat ramp from cold to hot.
const shades = " .:-=+*#%@"

// Render draws the surface as an ASCII heatmap: exact values in a table grid
// plus a shade glyph per cell scaled to the surface's own [min, max] range.
// Deterministic: same values, same bytes.
func (s *Surface) Render() string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range s.Values {
		for _, v := range row {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
	}
	if len(s.Rows) == 0 || len(s.Cols) == 0 {
		return fmt.Sprintf("%s: (empty surface)\n", s.Name)
	}
	shade := func(v float64) byte {
		if hi <= lo {
			return shades[0]
		}
		i := int((v - lo) / (hi - lo) * float64(len(shades)-1))
		return shades[i]
	}
	t := &Table{Title: fmt.Sprintf("%s [%s] (min %.4g, max %.4g)", s.Name, s.Unit, lo, hi)}
	t.Columns = append([]string{""}, s.Cols...)
	for r, label := range s.Rows {
		cells := []string{label}
		for c := range s.Cols {
			v := s.Values[r][c]
			cells = append(cells, fmt.Sprintf("%.4g %c", v, shade(v)))
		}
		t.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "shade ramp: %q cold->hot\n", shades)
	return b.String()
}

// DegradationRow is one faulted cell's summary against its baseline —
// the already-reduced form campaign reports carry (no histograms needed).
type DegradationRow struct {
	Cell                                      string
	P50Inflation, P99Inflation, P999Inflation float64
	LossRate                                  float64
	FaultDrops                                uint64
}

// DegradationSummaryTable renders many faulted cells against their baselines
// in one cross-cell table — one row per cell, the campaign-report
// counterpart of the single-run Degradation.Table.
func DegradationSummaryTable(title string, rows []DegradationRow) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"cell", "p50 infl", "p99 infl", "p99.9 infl", "loss rate", "fault drops"},
	}
	for _, r := range rows {
		t.AddRow(r.Cell,
			fmt.Sprintf("%.2fx", r.P50Inflation),
			fmt.Sprintf("%.2fx", r.P99Inflation),
			fmt.Sprintf("%.2fx", r.P999Inflation),
			fmt.Sprintf("%.4f", r.LossRate),
			fmt.Sprint(r.FaultDrops))
	}
	return t
}
