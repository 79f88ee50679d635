package metrics

import (
	"fmt"
	"strings"

	"diablo/internal/sim"
)

// Counter is a monotonically increasing count with byte accounting, used for
// link/switch/NIC statistics.
type Counter struct {
	Packets uint64
	Bytes   uint64
}

// Add records one packet of n bytes.
func (c *Counter) Add(n int) {
	c.Packets++
	c.Bytes += uint64(n)
}

// Throughput returns average bits per second over the elapsed duration.
func (c *Counter) Throughput(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) * 8 / elapsed.Seconds()
}

// Series is a named (x, y) data series, the unit of output for every figure
// reproduction: each plotted curve in the paper becomes one Series.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// String renders the series as an aligned two-column table.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	xl, yl := s.XLabel, s.YLabel
	if xl == "" {
		xl = "x"
	}
	if yl == "" {
		yl = "y"
	}
	fmt.Fprintf(&b, "%-16s %-16s\n", xl, yl)
	for i := range s.X {
		fmt.Fprintf(&b, "%-16.6g %-16.6g\n", s.X[i], s.Y[i])
	}
	return b.String()
}

// FromCDF converts CDF points (latency in µs on X, cumulative fraction on Y)
// into a Series, matching the paper's axis conventions.
func FromCDF(name string, pts []CDFPoint) *Series {
	s := &Series{Name: name, XLabel: "latency_us", YLabel: "cdf"}
	for _, p := range pts {
		s.Append(p.Value.Microseconds(), p.Fraction)
	}
	return s
}

// FromPMF converts PMF bins (bin center in µs on X, mass on Y).
func FromPMF(name string, bins []PMFBin) *Series {
	s := &Series{Name: name, XLabel: "latency_us", YLabel: "pmf"}
	for _, b := range bins {
		center := (b.Low + b.High) / 2
		s.Append(center.Microseconds(), b.Fraction)
	}
	return s
}

// Table is a simple named-row/column text table used for Table 1/2-style
// outputs.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
