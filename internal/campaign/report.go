package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"diablo/internal/metrics"
	"diablo/internal/obs"
)

// ReportSchema identifies the campaign report JSON layout.
const ReportSchema = "diablo/campaign-report/v1"

// Report is the machine-readable record of one campaign: per-cell summaries
// in enumeration order, degradation against each combo's baseline cell,
// p99.9 surfaces across the sweep axes, and the campaign-level hash chaining
// every cell manifest. The embedded spec makes the report self-replaying.
type Report struct {
	Schema     string       `json:"schema"`
	Name       string       `json:"name"`
	MasterSeed uint64       `json:"master_seed"`
	Spec       Spec         `json:"spec"`
	Cells      []CellReport `json:"cells"`
	// Surfaces holds the p99.9 heatmaps (one per profile × workload, rows =
	// topology shapes, cols = fault draws) and, when the sweep has fault
	// draws, the matching p99.9-inflation degradation surfaces.
	Surfaces []*metrics.Surface `json:"surfaces,omitempty"`
	// AggregateHash chains every cell's manifest hash in enumeration order:
	// the campaign's replay digest. Identical at any worker count.
	AggregateHash string `json:"aggregate_hash"`
}

// CellReport is one cell's summary row.
type CellReport struct {
	Index         int    `json:"index"`
	Name          string `json:"name"`
	Seed          uint64 `json:"seed"`
	Shape         string `json:"shape"`
	Profile       string `json:"profile"`
	Workload      string `json:"workload"`
	Draw          int    `json:"draw"`
	BaselineIndex int    `json:"baseline_index"`

	StatsHash    string `json:"stats_hash"`
	ManifestHash string `json:"manifest_hash"`

	ElapsedPs   int64  `json:"elapsed_ps"`
	Events      uint64 `json:"events"`
	Clients     int    `json:"clients"`
	Samples     uint64 `json:"samples"`
	Attempted   uint64 `json:"attempted"`
	Lost        uint64 `json:"lost"`
	Retried     uint64 `json:"retried"`
	FaultDrops  uint64 `json:"fault_drops"`
	SwitchDrops uint64 `json:"switch_drops"`

	MeanUs              float64 `json:"mean_us"`
	P50Us               float64 `json:"p50_us"`
	P99Us               float64 `json:"p99_us"`
	P999Us              float64 `json:"p999_us"`
	MaxUs               float64 `json:"max_us"`
	ThroughputPerServer float64 `json:"throughput_per_server"`
	MeanUtil            float64 `json:"mean_util"`
	// GoodputMbps is an incast cell's application goodput (absent on
	// memcached cells).
	GoodputMbps float64 `json:"goodput_mbps,omitempty"`

	// Degradation compares the cell against its combo's baseline cell
	// (nil on baseline cells).
	Degradation *DegradationJSON `json:"degradation,omitempty"`
}

// DegradationJSON summarizes a faulted cell against its baseline cell.
type DegradationJSON struct {
	Name             string  `json:"name"`
	P50Inflation     float64 `json:"p50_inflation"`
	P99Inflation     float64 `json:"p99_inflation"`
	P999Inflation    float64 `json:"p999_inflation"`
	LossRate         float64 `json:"loss_rate"`
	BaselineRequests int     `json:"baseline_requests"`
	FaultedRequests  int     `json:"faulted_requests"`
	Retried          int     `json:"retried"`
	FaultDrops       uint64  `json:"fault_drops"`
}

// Degradation measures a faulted cell against its baseline cell, named after
// the faulted cell.
func Degradation(base, faulted *CellResult) *metrics.Degradation {
	b, f := base.Result, faulted.Result
	return &metrics.Degradation{
		Name:            faulted.Cell.Name,
		Baseline:        b.Overall,
		Faulted:         f.Overall,
		BaselineLost:    b.Lost(),
		FaultedLost:     f.Lost(),
		BaselineRetried: b.Retried,
		FaultedRetried:  f.Retried,
		FaultDrops:      f.FaultDrops,
	}
}

// degradationJSON converts a degradation table for the report; attempted is
// the faulted cell's attempted request count.
func degradationJSON(d *metrics.Degradation, attempted uint64) *DegradationJSON {
	return &DegradationJSON{
		Name:             d.Name,
		P50Inflation:     d.Inflation(0.50),
		P99Inflation:     d.Inflation(0.99),
		P999Inflation:    d.Inflation(0.999),
		LossRate:         metrics.LossRate(d.FaultedLost, attempted),
		BaselineRequests: int(d.Baseline.Count()),
		FaultedRequests:  int(d.Faulted.Count()),
		Retried:          int(d.FaultedRetried),
		FaultDrops:       d.FaultDrops,
	}
}

// BuildReport aggregates executed cells (RunCells, in enumeration order) into
// the report. Pure: no clocks, no map iteration, no worker-count residue.
func BuildReport(spec *Spec, results []*CellResult) (*Report, error) {
	rep := &Report{
		Schema:     ReportSchema,
		Name:       spec.Name,
		MasterSeed: spec.MasterSeed,
		Spec:       *spec,
	}
	hashes := make([]string, 0, len(results))
	for _, cr := range results {
		cell, res := cr.Cell, cr.Result
		row := CellReport{
			Index:         cell.Index,
			Name:          cell.Name,
			Seed:          cell.Seed,
			Shape:         cell.Shape.ShapeName(),
			Profile:       cell.Profile,
			Workload:      cell.Workload.Name,
			Draw:          cell.Draw,
			BaselineIndex: cell.BaselineIndex,
			StatsHash:     cr.Manifest.StatsHash,
			ManifestHash:  cr.ManifestHash,
			ElapsedPs:     int64(res.Elapsed),
			Events:        cr.Manifest.Events,
			Clients:       res.Clients,
			Samples:       res.Samples,
			Attempted:     res.Attempted,
			Lost:          res.Lost(),
			Retried:       res.Retried,
			FaultDrops:    res.FaultDrops,
			SwitchDrops:   res.SwitchDrops,
			MeanUs:        res.Overall.Mean().Microseconds(),
			P50Us:         res.Overall.Percentile(0.50).Microseconds(),
			P99Us:         res.Overall.Percentile(0.99).Microseconds(),
			P999Us:        res.Overall.Percentile(0.999).Microseconds(),
			MaxUs:         res.Overall.Max().Microseconds(),

			ThroughputPerServer: res.ThroughputPerServer(),
			MeanUtil:            res.MeanUtil,
			GoodputMbps:         cr.Incast.GoodputBps / 1e6,
		}
		if !cell.Baseline() {
			base := results[cell.BaselineIndex]
			if base == nil || !base.Cell.Baseline() {
				return nil, fmt.Errorf("campaign: cell %s points at baseline index %d which is not a baseline", cell.Name, cell.BaselineIndex)
			}
			row.Degradation = degradationJSON(Degradation(base, cr), res.Attempted)
		}
		rep.Cells = append(rep.Cells, row)
		hashes = append(hashes, cell.Name+" "+cr.ManifestHash)
	}
	rep.Surfaces = buildSurfaces(spec, rep.Cells)
	rep.AggregateHash = obs.AggregateHash(hashes)
	return rep, nil
}

// buildSurfaces lays the cell grid out as p99.9 heatmaps: one surface per
// (profile, workload) pane with topology shapes as rows and fault draws as
// columns, plus a p99.9-inflation degradation surface per pane when the
// sweep has fault draws. With several seeds each entry is the median over
// the replicates.
func buildSurfaces(spec *Spec, cells []CellReport) []*metrics.Surface {
	// A valid spec spells each shape canonically (topology.ParseShape), so
	// the spec's shape strings are the cells' shape names.
	rows := make([]string, len(spec.Topologies))
	index := map[string]int{}
	for i, t := range spec.Topologies {
		rows[i] = t.Shape
		index[t.Shape] = i
	}
	cols := make([]string, spec.Faults.Draws+1)
	for d := range cols {
		cols[d] = drawName(d)
	}

	groups := replicates(cells)
	var out []*metrics.Surface
	for _, prof := range spec.Profiles {
		for _, wl := range spec.Workloads {
			pane := fmt.Sprintf("profile=%s workload=%s", prof, wl.Name)
			p999 := metrics.NewSurface("p99.9 latency "+pane, "us", rows, cols)
			var infl *metrics.Surface
			if spec.Faults.Draws > 0 {
				infl = metrics.NewSurface("p99.9 inflation vs baseline "+pane, "x", rows, cols[1:])
			}
			for _, g := range groups {
				c := g[0]
				if c.Profile != prof || c.Workload != wl.Name {
					continue
				}
				r, ok := index[c.Shape]
				if !ok {
					continue
				}
				med, _, _ := spread(g, func(c CellReport) float64 { return c.P999Us })
				p999.Set(r, c.Draw, med)
				if infl != nil && c.Degradation != nil {
					med, _, _ := spread(g, func(c CellReport) float64 { return c.Degradation.P999Inflation })
					infl.Set(r, c.Draw-1, med)
				}
			}
			out = append(out, p999)
			if infl != nil {
				out = append(out, infl)
			}
		}
	}
	return out
}

// replicates groups the cells by (shape, profile, workload, draw), in
// enumeration order: each group holds one point's cells across the seeds.
func replicates(cells []CellReport) [][]CellReport {
	var groups [][]CellReport
	index := map[string]int{}
	for _, c := range cells {
		k := fmt.Sprintf("%s/%s/%s/%d", c.Shape, c.Profile, c.Workload, c.Draw)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// spread returns the median, minimum and maximum of f over the cells.
func spread(cells []CellReport, f func(CellReport) float64) (med, lo, hi float64) {
	xs := make([]float64, len(cells))
	for i, c := range cells {
		xs[i] = f(c)
	}
	sort.Float64s(xs)
	n := len(xs)
	med = xs[n/2]
	if n%2 == 0 {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return med, xs[0], xs[n-1]
}

// EncodeJSON renders the report as indented JSON — the byte-stable
// CAMPAIGN_results.json artifact.
func (r *Report) EncodeJSON() ([]byte, error) {
	if r.Schema == "" {
		r.Schema = ReportSchema
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReport parses an encoded report and checks its schema tag.
func DecodeReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("campaign: report decode: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("campaign: report schema %q, want %q", r.Schema, ReportSchema)
	}
	return &r, nil
}

// RenderText renders the human-readable summary: the per-cell table, the
// replicate summary when the spec has several seeds, the cross-cell
// degradation table, and the ASCII heatmaps.
func (r *Report) RenderText(w io.Writer) error {
	t := &metrics.Table{
		Title:   fmt.Sprintf("campaign %s (%d cells, seed %d, %s)", r.Name, len(r.Cells), r.MasterSeed, r.AggregateHash),
		Columns: []string{"cell", "p50", "p99", "p99.9", "tput/srv", "lost", "fault drops"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Name,
			fmt.Sprintf("%.4gus", c.P50Us),
			fmt.Sprintf("%.4gus", c.P99Us),
			fmt.Sprintf("%.4gus", c.P999Us),
			fmt.Sprintf("%.4g/s", c.ThroughputPerServer),
			fmt.Sprint(c.Lost),
			fmt.Sprint(c.FaultDrops))
	}
	if _, err := io.WriteString(w, t.String()); err != nil {
		return err
	}
	if len(r.Spec.Seeds) >= 2 {
		if _, err := io.WriteString(w, r.replicateTable().String()); err != nil {
			return err
		}
	}
	var degRows []metrics.DegradationRow
	for _, c := range r.Cells {
		if c.Degradation == nil {
			continue
		}
		degRows = append(degRows, metrics.DegradationRow{
			Cell:          c.Name,
			P50Inflation:  c.Degradation.P50Inflation,
			P99Inflation:  c.Degradation.P99Inflation,
			P999Inflation: c.Degradation.P999Inflation,
			LossRate:      c.Degradation.LossRate,
			FaultDrops:    c.Degradation.FaultDrops,
		})
	}
	if len(degRows) > 0 {
		dt := metrics.DegradationSummaryTable("degradation vs unfaulted baseline cells", degRows)
		if _, err := io.WriteString(w, dt.String()); err != nil {
			return err
		}
	}
	for _, s := range r.Surfaces {
		if _, err := io.WriteString(w, s.Render()); err != nil {
			return err
		}
	}
	return nil
}

// replicateTable summarizes each (shape, profile, workload, draw) point over
// the spec's seeds: median [min-max] of its latency statistics, and of its
// goodput when the sweep has incast cells.
func (r *Report) replicateTable() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("replicates: median [min-max] over %d seeds", len(r.Spec.Seeds)),
		Columns: []string{"shape", "profile", "workload", "draw", "mean", "p50", "p99", "p99.9"},
	}
	stats := []func(CellReport) float64{
		func(c CellReport) float64 { return c.MeanUs },
		func(c CellReport) float64 { return c.P50Us },
		func(c CellReport) float64 { return c.P99Us },
		func(c CellReport) float64 { return c.P999Us },
	}
	units := []string{"us", "us", "us", "us"}
	if slices.ContainsFunc(r.Cells, func(c CellReport) bool { return c.GoodputMbps != 0 }) {
		t.Columns = append(t.Columns, "goodput")
		stats = append(stats, func(c CellReport) float64 { return c.GoodputMbps })
		units = append(units, "Mbps")
	}
	for _, g := range replicates(r.Cells) {
		row := []string{g[0].Shape, g[0].Profile, g[0].Workload, drawName(g[0].Draw)}
		for i, f := range stats {
			med, lo, hi := spread(g, f)
			row = append(row, fmt.Sprintf("%.4g%s [%.4g-%.4g]", med, units[i], lo, hi))
		}
		t.AddRow(row...)
	}
	return t
}
