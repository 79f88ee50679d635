package diablo

import (
	"fmt"
	"sort"
	"strings"

	"diablo/internal/apps/incast"
	"diablo/internal/core"
	"diablo/internal/fault"
	"diablo/internal/fpga"
	"diablo/internal/metrics"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/survey"
)

// ExperimentOptions tune a registry run. Zero values select the reduced
// bench-scale defaults documented in DESIGN.md; the paper's full parameters
// are reachable by raising Requests/Iterations.
type ExperimentOptions struct {
	// Sweep sizes the figure reproductions; perf, faultmc and faultincast
	// read its Requests, Iterations, Seed and Partitions too.
	Sweep
	// Faults overrides the fault schedule of the graceful-degradation
	// experiments (faultmc, faultincast) with a spec in the fault.ParseSpec
	// grammar, e.g. "tordegrade rack=0 at=30ms dur=200ms loss=0.5". Empty
	// keeps each experiment's built-in schedule; other experiments ignore it.
	Faults string
	// TraceOut, if non-empty, writes a Chrome trace-event JSON file of the
	// experiment's observed run — load it in ui.perfetto.dev or
	// chrome://tracing. Supported by perf, faultmc and faultincast; other
	// experiments ignore it.
	TraceOut string
	// ManifestOut, if non-empty, writes a machine-readable run manifest
	// (schema diablo/run-manifest/v1: config, seed, stats series, engine
	// balance, degradation) for the same observed run as TraceOut.
	ManifestOut string
}

// observing reports whether any observation output was requested.
func (o ExperimentOptions) observing() bool {
	return o.TraceOut != "" || o.ManifestOut != ""
}

// writeObservation writes the requested trace/manifest files and returns a
// human-readable note describing what landed where.
func (o ExperimentOptions) writeObservation(obsn *core.Observation, m *obs.Manifest) (string, error) {
	if err := obsn.WriteFiles(o.TraceOut, o.ManifestOut, m); err != nil {
		return "", err
	}
	var notes []string
	if o.TraceOut != "" && obsn.Trace != nil {
		notes = append(notes, fmt.Sprintf("trace: %d events -> %s (open in ui.perfetto.dev)",
			obsn.Trace.Len(), o.TraceOut))
	}
	if o.ManifestOut != "" {
		notes = append(notes, fmt.Sprintf("manifest: %s -> %s", m.Schema, o.ManifestOut))
	}
	return strings.Join(notes, "; "), nil
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
		{"fig6a", "Figure 6a: TCP Incast goodput, 1 Gbps shallow-buffer switch", runFig6a},
		{"fig6b", "Figure 6b: TCP Incast at 10 Gbps, pthread/epoll x 2/4 GHz", runFig6b},
		{"fig8", "Figure 8: single-rack memcached validation", runFig8},
		{"fig9", "Figure 9: 120-node latency CDF, memcached versions", runFig9},
		{"fig10", "Figure 10: latency PMF by hop count at 2,000 nodes", runFig10},
		{"fig11", "Figure 11: 95-100th pct latency CDF across scales", runFig11},
		{"fig12", "Figure 12: +0/+50/+100 ns switch latency sensitivity", runFig12},
		{"fig13", "Figure 13: TCP vs UDP across scales and fabrics", runFig13},
		{"fig14", "Figure 14: Linux 2.6.39.3 vs 3.5.7 at 2,000 nodes", runFig14},
		{"fig15", "Figure 15: memcached 1.4.15 vs 1.4.17 at scale", runFig15},
		{"perf", "Section 5: simulator performance and scaling", runPerf},
		{"faultmc", "Fault injection: memcached fan-out latency under a ToR uplink flap", runFaultMC},
		{"faultincast", "Fault injection: TCP incast with a lossy client downlink", runFaultIncast},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// RunExperiment runs a registry entry by ID.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentOutput, error) {
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

func runFig6a(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure6a(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig6b(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure6b(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig8(o ExperimentOptions) (*ExperimentOutput, error) {
	th, lat, err := core.Figure8(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: append(th, lat...)}, nil
}

func runFig9(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure9(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig10(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure10(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig11(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure11(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig12(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure12(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig13(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure13(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

func runFig14(o ExperimentOptions) (*ExperimentOutput, error) {
	series, results, err := core.Figure14(o.Sweep)
	if err != nil {
		return nil, err
	}
	out := &ExperimentOutput{Series: series}
	if len(results) == 2 {
		out.Notes = append(out.Notes, fmt.Sprintf(
			"mean latency: %v (2.6.39.3) vs %v (3.5.7); paper: 'almost halved'",
			results[0].Overall.Mean(), results[1].Overall.Mean()))
	}
	return out, nil
}

func runFig15(o ExperimentOptions) (*ExperimentOutput, error) {
	series, err := core.Figure15(o.Sweep)
	if err != nil {
		return nil, err
	}
	return &ExperimentOutput{Series: series}, nil
}

// customFaults parses o.Faults, seeded with the run's seed like the
// built-in schedules; nil means no schedule was given.
func (o ExperimentOptions) customFaults(seed uint64) (*fault.Plan, error) {
	if o.Faults == "" {
		return nil, nil
	}
	return fault.ParseSpec(seed, o.Faults)
}

// observe returns an OnCluster hook that, with observation requested,
// attaches one to the run's cluster and keeps it in *obsn.
func (o ExperimentOptions) observe(obsn **core.Observation) func(*core.Cluster) {
	if !o.observing() {
		return nil
	}
	return func(c *core.Cluster) { *obsn = core.Observe(c, core.ObserveConfig{}) }
}

func runFaultMC(o ExperimentOptions) (*ExperimentOutput, error) {
	cfg := core.DefaultMemcached()
	cfg.Arrays = 1
	cfg.RequestsPerClient = 40
	cfg.MaxClients = 64
	cfg.Warmup = 2
	if o.Requests > 0 {
		cfg.RequestsPerClient = o.Requests
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.Partitions = o.Partitions

	plan, err := o.customFaults(cfg.Seed)
	if err != nil {
		return nil, err
	}
	name := "memcached under faults"
	if plan == nil {
		// Built in: rack 0's uplink drops half its frames for 200 ms from 30 ms.
		rack, at, dur, loss := 0, sim.Time(30*sim.Millisecond), 200*sim.Millisecond, 0.5
		plan = fault.NewPlan(cfg.Seed).DegradeRackUplink(rack, at, dur, loss, 0)
		name = fmt.Sprintf("memcached under ToR flap (rack %d, %v for %v, loss %g)", rack, at, dur, loss)
	}
	// The same config twice, healthy and then under plan: with identical
	// seeds every difference is the faults'. Only the faulted run is observed.
	base, err := core.RunMemcached(cfg)
	if err != nil {
		return nil, fmt.Errorf("faultmc: baseline run: %w", err)
	}
	var obsn *core.Observation
	cfg.Faults = plan
	cfg.OnCluster = o.observe(&obsn)
	r, err := core.RunMemcached(cfg)
	if err != nil {
		return nil, fmt.Errorf("faultmc: faulted run: %w", err)
	}
	d := &metrics.Degradation{
		Name:            name,
		Baseline:        base.Overall,
		Faulted:         r.Overall,
		BaselineLost:    base.Lost(),
		FaultedLost:     r.Lost(),
		BaselineRetried: base.Retried,
		FaultedRetried:  r.Retried,
		FaultDrops:      r.FaultDrops,
	}
	out := &ExperimentOutput{Tables: []*metrics.Table{d.Table()}}
	out.Notes = append(out.Notes,
		fmt.Sprintf("schedule:\n%s", plan),
		fmt.Sprintf("fault edges fired: %d; p99.9 inflation %.2fx; lost %d of %d requests (%.3g%%)",
			len(r.FaultEdges), d.Inflation(0.999), r.Lost(), r.Attempted,
			100*metrics.LossRate(r.Lost(), r.Attempted)))
	if obsn != nil {
		m := obsn.BuildManifest("faultmc", cfg.Seed, map[string]any{
			"requests_per_client": cfg.RequestsPerClient,
			"faults":              plan.String(),
		})
		m.Degradation = core.ManifestDegradation(d, r.Attempted)
		note, werr := o.writeObservation(obsn, m)
		if werr != nil {
			return nil, werr
		}
		out.Notes = append(out.Notes, "observed faulted run: "+note)
	}
	return out, nil
}

func runFaultIncast(o ExperimentOptions) (*ExperimentOutput, error) {
	cfg := core.DefaultIncast(8)
	cfg.Iterations = 10
	if o.Iterations > 0 {
		cfg.Iterations = o.Iterations
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}

	plan, err := o.customFaults(cfg.Seed)
	if err != nil {
		return nil, err
	}
	name := "incast under faults"
	if plan == nil {
		// Built in: the switch->client direction of the client's edge link
		// (node 0), where the incast aggregate flows, drops 10% of frames all
		// run long.
		loss := 0.1
		plan = fault.NewPlan(cfg.Seed).DegradeEdge(0, fault.Down, 0, 600*sim.Second, loss, 0)
		name = fmt.Sprintf("incast with lossy downlink (%d senders, loss %g)", cfg.Senders, loss)
	}
	base, err := core.RunIncast(cfg)
	if err != nil {
		return nil, fmt.Errorf("faultincast: baseline run: %w", err)
	}
	var cluster *core.Cluster
	var obsn *core.Observation
	cfg.Faults = plan
	cfg.OnCluster = func(c *core.Cluster) {
		cluster = c
		if o.observing() {
			obsn = core.Observe(c, core.ObserveConfig{})
		}
	}
	r, err := core.RunIncast(cfg)
	if err != nil {
		return nil, fmt.Errorf("faultincast: faulted run: %w", err)
	}
	// The degradation histograms hold per-iteration completion times.
	iters := func(r incast.Result) *metrics.Histogram {
		h := metrics.NewHistogram()
		for _, d := range r.IterTimes {
			h.Record(d)
		}
		return h
	}
	d := &metrics.Degradation{
		Name:            name,
		Baseline:        iters(base),
		Faulted:         iters(r),
		BaselineRetried: base.Retransmits,
		FaultedRetried:  r.Retransmits,
		FaultDrops:      cluster.FaultDrops(),
	}
	goodputRatio := 0.0
	if base.GoodputBps > 0 {
		goodputRatio = r.GoodputBps / base.GoodputBps
	}
	out := &ExperimentOutput{Tables: []*metrics.Table{d.Table()}}
	out.Notes = append(out.Notes,
		fmt.Sprintf("schedule:\n%s", plan),
		fmt.Sprintf("goodput %.1f -> %.1f Mbps (%.2fx); retransmits %d -> %d; timeouts %d -> %d",
			base.GoodputBps/1e6, r.GoodputBps/1e6, goodputRatio,
			base.Retransmits, r.Retransmits,
			base.Timeouts, r.Timeouts))
	if obsn != nil {
		m := obsn.BuildManifest("faultincast", cfg.Seed, map[string]any{
			"senders":    cfg.Senders,
			"iterations": cfg.Iterations,
			"faults":     plan.String(),
		})
		// Incast degrades goodput, not a request count; loss rate is not a
		// per-request notion here, so attempted stays 0.
		m.Degradation = core.ManifestDegradation(d, 0)
		note, werr := o.writeObservation(obsn, m)
		if werr != nil {
			return nil, werr
		}
		out.Notes = append(out.Notes, "observed faulted run: "+note)
	}
	return out, nil
}

func runPerf(o ExperimentOptions) (*ExperimentOutput, error) {
	requests := o.Requests
	if requests == 0 {
		requests = 60
	}
	points, err := core.Section5Performance(nil, requests)
	if err != nil {
		return nil, err
	}
	out := &ExperimentOutput{Tables: []*metrics.Table{core.PerfTable(points)}}
	seq, par := core.EngineComparison(8, 100_000)
	out.Notes = append(out.Notes, fmt.Sprintf(
		"engine comparison (8 partitions): sequential %.2fM ev/s, quantum-barrier parallel %.2fM ev/s (%.1fx)",
		seq/1e6, par/1e6, par/seq))
	if o.observing() {
		cfg := core.DefaultMemcached()
		cfg.Arrays = 1
		cfg.RequestsPerClient = requests
		cfg.Partitions = o.Partitions
		if cfg.Partitions <= 1 {
			cfg.Partitions = 2
		}
		if o.Seed != 0 {
			cfg.Seed = o.Seed
		}
		var obsn *core.Observation
		cfg.OnCluster = o.observe(&obsn)
		if _, err := core.RunMemcached(cfg); err != nil {
			return nil, err
		}
		m := obsn.BuildManifest("perf/memcached-1array", cfg.Seed, map[string]any{
			"arrays":              cfg.Arrays,
			"requests_per_client": cfg.RequestsPerClient,
			"partitions":          cfg.Partitions,
		})
		note, werr := o.writeObservation(obsn, m)
		if werr != nil {
			return nil, werr
		}
		out.Notes = append(out.Notes, "observed §5 memcached run: "+note)
	}
	return out, nil
}
