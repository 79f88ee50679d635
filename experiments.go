package diablo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"diablo/internal/campaign"
	"diablo/internal/core"
	"diablo/internal/fault"
	"diablo/internal/fpga"
	"diablo/internal/metrics"
	"diablo/internal/survey"
)

// ExperimentOptions tune a registry run. Zero values select the reduced
// bench-scale defaults documented in DESIGN.md; the paper's full parameters
// are reachable by raising Requests/Iterations.
type ExperimentOptions struct {
	// Requests per memcached client and Iterations per incast run (paper:
	// 30K and 40); Seed is the master seed (default 1). Zero keeps each
	// experiment's default.
	Requests, Iterations int
	Seed                 uint64
}

// ExperimentOutput is the rendered result of one experiment.
type ExperimentOutput struct {
	Series []*metrics.Series
	Tables []*metrics.Table
	Notes  []string
}

// String renders everything.
func (o *ExperimentOutput) String() string {
	out := ""
	for _, t := range o.Tables {
		out += t.String() + "\n"
	}
	for _, s := range o.Series {
		out += s.String() + "\n"
	}
	for _, n := range o.Notes {
		out += "# " + n + "\n"
	}
	return out
}

// Experiment reproduces one of the paper's tables or figures.
type Experiment struct {
	ID    string
	Title string
	Run   func(ExperimentOptions) (*ExperimentOutput, error)
}

// Experiments returns the registry, sorted by ID.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig2", "Figure 2: testbed sizes in SIGCOMM 2008-2013", runFig2},
		{"table1", "Table 1: workloads in surveyed papers", runTable1},
		{"table2", "Table 2: Rack FPGA resource utilization", runTable2},
		{"proto", "Section 3.4: prototype capacity and cost", runProto},
		{"fig6a", "Figure 6a: TCP Incast goodput, 1 Gbps shallow-buffer switch", runFigure("fig6a", drawFig6a)},
		{"fig6b", "Figure 6b: TCP Incast at 10 Gbps, pthread/epoll x 2/4 GHz", runFigure("fig6b", drawFig6b)},
		{"fig8", "Figure 8: single-rack memcached validation", runFigure("fig8", drawFig8)},
		{"fig9", "Figure 9: 120-node latency CDF, memcached versions", runFigure("fig9", tails(0.98, func(c campaign.Cell) string {
			return "[" + proxy(c, "Physical") + "] Memcached " + c.Workload.Version
		}))},
		{"fig10", "Figure 10: latency PMF by hop count at 2,000 nodes", runFigure("fig10", drawFig10)},
		{"fig11", "Figure 11: 95-100th pct latency CDF across scales", runFigure("fig11", tails(0.95, nodes))},
		{"fig12", "Figure 12: +0/+50/+100 ns switch latency sensitivity", runFigure("fig12", tails(0.96, func(c campaign.Cell) string { return c.Workload.Name }))},
		{"fig13", "Figure 13: TCP vs UDP across scales and fabrics", runFigure("fig13", drawFig13)},
		{"fig14", "Figure 14: Linux 2.6.39.3 vs 3.5.7 at 2,000 nodes", runFigure("fig14", drawFig14)},
		{"fig15", "Figure 15: memcached 1.4.15 vs 1.4.17 at scale", runFigure("fig15", tails(0.95, func(c campaign.Cell) string { return nodes(c) + " memcached " + c.Workload.Version }))},
		{"perf", "Section 5: simulator performance and scaling", runPerf},
		{"faultmc", "Fault injection: memcached fan-out latency under a ToR uplink flap", runFigure("faultmc", drawFaultMC)},
		{"faultincast", "Fault injection: TCP incast with a lossy client downlink", runFigure("faultincast", drawFaultIncast)},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// RunExperiment runs a registry entry by ID.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentOutput, error) {
	// Zero keeps each experiment's default, so a negative count would
	// otherwise pass for one.
	for _, f := range []struct {
		name string
		v    int
	}{{"Requests", opts.Requests}, {"Iterations", opts.Iterations}} {
		if f.v < 0 {
			return nil, fmt.Errorf("diablo: %s must not be negative (got %d)", f.name, f.v)
		}
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(opts)
		}
	}
	return nil, fmt.Errorf("diablo: unknown experiment %q (try cmd/diablo list)", id)
}

func runFig2(ExperimentOptions) (*ExperimentOutput, error) {
	return &ExperimentOutput{
		Series: []*metrics.Series{survey.Figure2()},
		Notes: []string{
			fmt.Sprintf("median servers = %d, median switches = %d", survey.MedianServers(), survey.MedianSwitches()),
		},
	}, nil
}

func runTable1(ExperimentOptions) (*ExperimentOutput, error) {
	return &ExperimentOutput{Tables: []*metrics.Table{survey.Table1()}}, nil
}

func runTable2(ExperimentOptions) (*ExperimentOutput, error) {
	out := &ExperimentOutput{Tables: []*metrics.Table{fpga.Table2()}}
	total := fpga.RackFPGATotal()
	u := total.Utilization(fpga.Virtex5LX155T)
	out.Notes = append(out.Notes,
		fmt.Sprintf("component sum vs LX155T capacity: %.0f%% of the binding resource (paper: ~95%% of slices incl. routing)", u*100))
	return out, nil
}

func runProto(ExperimentOptions) (*ExperimentOutput, error) {
	p := fpga.PaperPrototype()
	tb := &metrics.Table{
		Title:   "Section 3.4: the 3,000-node DIABLO prototype",
		Columns: []string{"quantity", "value", "paper"},
	}
	tb.AddRow("boards", fmt.Sprint(p.TotalBoards()), "9 BEE3")
	tb.AddRow("simulated servers", fmt.Sprint(p.SimulatedServers()), "2,976")
	tb.AddRow("simulated rack switches", fmt.Sprint(p.SimulatedRackSwitches()), "96")
	tb.AddRow("total DRAM", fmt.Sprintf("%d GB", p.TotalDRAMGB()), "576 GB")
	tb.AddRow("DRAM channels", fmt.Sprint(p.DRAMChannels()), "72")
	tb.AddRow("board cost", fmt.Sprintf("$%d", p.CostUSD()), "~$140K")
	c := fpga.PaperCostComparison()
	tb.AddRow("capex vs real array", fmt.Sprintf("%.0fx cheaper", c.CapexRatio()), "$150K vs $36M")
	scaled := fpga.ScaledSystem(fpga.BEE3(), 11_904)
	tb.AddRow("scaled 11,904-server system", fmt.Sprintf("%d boards", scaled.TotalBoards()), "9 + 13 more (paper text; packing math gives 36)")
	return &ExperimentOutput{Tables: []*metrics.Table{tb}}, nil
}

// runFigure returns the runner of a figure or fault experiment: it runs the
// experiment's campaign preset at one seed (Seed, default 1) with Requests
// per memcached client or Iterations per incast run (0 keeps the preset's)
// and draws the output from the cell results, in enumeration order. Cells run in parallel, each on the
// sequential engine.
func runFigure(preset string, draw func([]*campaign.CellResult) *ExperimentOutput) func(ExperimentOptions) (*ExperimentOutput, error) {
	return func(o ExperimentOptions) (*ExperimentOutput, error) {
		spec, err := campaign.Preset(preset)
		if err != nil {
			return nil, err
		}
		spec.Seeds = []uint64{cmp.Or(o.Seed, 1)}
		for i, w := range spec.Workloads {
			n := o.Requests
			if w.App == "incast" {
				n = o.Iterations
			}
			spec.Workloads[i].Requests = cmp.Or(n, w.Requests)
		}
		cells, err := campaign.RunCells(spec, campaign.RunConfig{})
		if err != nil {
			return nil, err
		}
		return draw(cells), nil
	}
}

// curves draws one series per label, in order of first appearance, with a
// point (x, y) per cell.
func curves(cells []*campaign.CellResult, label func(campaign.Cell) string, xLabel, yLabel string,
	x func(*campaign.CellResult) int, y func(*campaign.CellResult) float64) []*metrics.Series {
	var out []*metrics.Series
	for _, cr := range cells {
		name := label(cr.Cell)
		i := slices.IndexFunc(out, func(s *metrics.Series) bool { return s.Name == name })
		if i < 0 {
			i, out = len(out), append(out, &metrics.Series{Name: name, XLabel: xLabel, YLabel: yLabel})
		}
		out[i].Append(float64(x(cr)), y(cr))
	}
	return out
}

// goodput draws incast goodput in Mbps against the sender count (an incast
// cell's servers).
func goodput(label func(campaign.Cell) string) func([]*campaign.CellResult) *ExperimentOutput {
	return func(cells []*campaign.CellResult) *ExperimentOutput {
		return &ExperimentOutput{Series: curves(cells, label, "senders", "goodput_mbps",
			func(cr *campaign.CellResult) int { return cr.Result.Servers },
			func(cr *campaign.CellResult) float64 { return cr.Incast.GoodputBps / 1e6 })}
	}
}

// drawFig6a names each curve by system, drawFig6b by syscall style and clock.
var (
	drawFig6a = goodput(func(c campaign.Cell) string {
		return map[string]string{
			"":               "DIABLO (VOQ model, full stack)",
			"ns2-style":      "ns2-style (drop-tail, ideal hosts)",
			"physical-proxy": "real hardware proxy (shared-buffer switch)",
		}[c.Workload.System]
	})
	drawFig6b = goodput(func(c campaign.Cell) string {
		style := "pthread"
		if c.Workload.Epoll {
			style = "epoll"
		}
		return fmt.Sprintf("%s %gGHz", style, c.Workload.CPUGHz)
	})
)

// proxy labels a cell's system: DIABLO, or physical for the testbed proxy.
func proxy(c campaign.Cell, physical string) string {
	if c.Workload.System == "physical-proxy" {
		return physical
	}
	return "DIABLO"
}

// drawFig8: throughput per server, then mean latency, against client count.
func drawFig8(cells []*campaign.CellResult) *ExperimentOutput {
	label := func(c campaign.Cell) string { return proxy(c, "Physical proxy") }
	clients := func(cr *campaign.CellResult) int { return cr.Result.Clients }
	return &ExperimentOutput{Series: append(
		curves(cells, label, "clients", "requests_per_sec_per_server", clients,
			func(cr *campaign.CellResult) float64 { return cr.Result.ThroughputPerServer() }),
		curves(cells, label, "clients", "mean_latency_us", clients,
			func(cr *campaign.CellResult) float64 { return cr.Result.Overall.Mean().Microseconds() })...)}
}

// tails draws each cell's latency CDF from quantile from on, named by label.
func tails(from float64, label func(campaign.Cell) string) func([]*campaign.CellResult) *ExperimentOutput {
	return func(cells []*campaign.CellResult) *ExperimentOutput {
		out := &ExperimentOutput{}
		for _, cr := range cells {
			out.Series = append(out.Series, metrics.FromCDF(label(cr.Cell), cr.Result.Overall.TailCDF(from)))
		}
		return out
	}
}

// nodes and rate label a cell's cluster size and interconnect.
func nodes(c campaign.Cell) string {
	return fmt.Sprintf("%d-node", c.Shape.ServersPerRack*c.Shape.RacksPerArray*c.Shape.Arrays)
}

func rate(c campaign.Cell) string {
	if c.Workload.Use10G {
		return "10Gbps"
	}
	return "1Gbps"
}

// drawFig10: the latency PMF of each hop class and overall, per fabric.
func drawFig10(cells []*campaign.CellResult) *ExperimentOutput {
	out := &ExperimentOutput{}
	for _, cr := range cells {
		label, res := rate(cr.Cell), cr.Result
		out.Series = append(out.Series,
			metrics.FromPMF(label+" Local", res.ByHop[Local].PMF(10)),
			metrics.FromPMF(label+" 1-Hop", res.ByHop[OneHop].PMF(10)),
			metrics.FromPMF(label+" 2-Hop", res.ByHop[TwoHop].PMF(10)),
			metrics.FromPMF(label+" Overall", res.Overall.PMF(10)),
		)
	}
	return out
}

// drawFig13 lists the 1 Gbps curves before the 10 Gbps ones, each fabric
// by scale then protocol.
func drawFig13(cells []*campaign.CellResult) *ExperimentOutput {
	sort.SliceStable(cells, func(i, j int) bool {
		return !cells[i].Cell.Workload.Use10G && cells[j].Cell.Workload.Use10G
	})
	return tails(0.97, func(c campaign.Cell) string { return rate(c) + " " + nodes(c) + " " + c.Workload.Proto })(cells)
}

func drawFig14(cells []*campaign.CellResult) *ExperimentOutput {
	out := tails(0.95, func(c campaign.Cell) string { return c.Profile })(cells)
	out.Notes = append(out.Notes, fmt.Sprintf(
		"mean latency: %v (2.6.39.3) vs %v (3.5.7); paper: 'almost halved'",
		cells[0].Result.Overall.Mean(), cells[1].Result.Overall.Mean()))
	return out
}

// faulted draws a fault preset: the degradation table of its faulted cell
// against its baseline, titled from the cell and the plan's first action,
// then the schedule and a summary note.
func faulted(title func(*campaign.CellResult, fault.Action) string,
	summary func(base, r *campaign.CellResult, d *metrics.Degradation) string) func([]*campaign.CellResult) *ExperimentOutput {
	return func(cells []*campaign.CellResult) *ExperimentOutput {
		base, r := cells[0], cells[1]
		d := campaign.Degradation(base, r)
		d.Name = title(r, r.Plan.Actions[0])
		return &ExperimentOutput{
			Tables: []*metrics.Table{d.Table()},
			Notes:  []string{"schedule:\n" + r.Plan.String(), summary(base, r, d)},
		}
	}
}

var (
	drawFaultMC = faulted(func(_ *campaign.CellResult, a fault.Action) string {
		return fmt.Sprintf("memcached under ToR flap (rack %d, %v for %v, loss %g)", a.Target.Rack, a.At, a.Dur, a.Loss)
	}, func(_, r *campaign.CellResult, d *metrics.Degradation) string {
		res := r.Result
		return fmt.Sprintf("fault edges fired: %d; p99.9 inflation %.2fx; lost %d of %d requests (%.3g%%)",
			len(res.FaultEdges), d.Inflation(0.999), res.Lost(), res.Attempted,
			100*metrics.LossRate(res.Lost(), res.Attempted))
	})
	// An incast cell's samples are its iterations' completion times.
	drawFaultIncast = faulted(func(r *campaign.CellResult, a fault.Action) string {
		return fmt.Sprintf("incast with lossy downlink (%d senders, loss %g)", r.Result.Servers, a.Loss)
	}, func(base, r *campaign.CellResult, _ *metrics.Degradation) string {
		b, f := base.Incast, r.Incast
		ratio := 0.0
		if b.GoodputBps > 0 {
			ratio = f.GoodputBps / b.GoodputBps
		}
		return fmt.Sprintf("goodput %.1f -> %.1f Mbps (%.2fx); retransmits %d -> %d; timeouts %d -> %d",
			b.GoodputBps/1e6, f.GoodputBps/1e6, ratio, b.Retransmits, f.Retransmits, b.Timeouts, f.Timeouts)
	})
)

func runPerf(o ExperimentOptions) (*ExperimentOutput, error) {
	points, err := core.Section5Performance(nil, cmp.Or(o.Requests, 60))
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Tables: []*metrics.Table{core.PerfTable(points)}}, nil
}
