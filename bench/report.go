package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"diablo/internal/core"
)

// metricDef names one metric of the benchmark. BENCHMARK.json at the root
// of the repository lists the same names, units and bounds; bench_test.go
// fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the base median by which an end-to-end metric may
	// worsen before -compare calls it worse (0 for per-layer metrics).
	bound float64
	// floor is an absolute worsening below which the metric never counts as
	// worse, in the metric's unit (set-up times of tens of milliseconds).
	floor float64
}

// endToEnd are the gated metrics, reported per workload with tracing off.
var endToEnd = []metricDef{
	{name: "cpu_s_per_sim_s", unit: "s/s", better: "lower", bound: 0.25},
	{name: "allocs_per_pkt", unit: "1/pkt", better: "lower", bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.050},
}

// informational metrics are printed beside the gated ones and never gated:
// wall-clock swings with whatever else the host is doing (README.md).
var informational = []metricDef{
	{name: "wall_s_per_sim_s", unit: "s/s", better: "lower"},
	{name: "sim_pkts_per_cpu_s", unit: "1/s", better: "higher"},
}

// perLayer are the attribution metrics of a traced run, in table order.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, layer := range append(append([]string{}, handlerLayers...), "sim") {
		defs = append(defs,
			metricDef{name: layer + ".host_share", unit: "share", better: "lower"},
			metricDef{name: layer + ".events", unit: "count", better: "lower"},
			metricDef{name: layer + ".ns_per_event", unit: "ns", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "core.setup_s", unit: "s", better: "lower"},
		metricDef{name: "core.teardown_s", unit: "s", better: "lower"},
		metricDef{name: "trace_overhead", unit: "share", better: "lower"})
	for _, name := range countMetrics {
		defs = append(defs, metricDef{name: name, unit: "count", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "sim.quanta", unit: "count", better: "lower"},
		metricDef{name: "sim.partition_util", unit: "share", better: "higher"},
		metricDef{name: "sim.barrier_park_share", unit: "share", better: "lower"})
	for _, p := range probes() {
		defs = append(defs, metricDef{name: p.name, unit: "ns", better: "lower"})
	}
	return defs
}()

// countMetrics are the deterministic counters read at the layer boundaries
// (traceRun.finish fills them).
var countMetrics = []string{
	"kernel.syscalls", "kernel.ctx_switches", "kernel.interrupts",
	"nic.tx_pkts", "vswitch.drops",
	"tcp.segs_out", "tcp.retransmits", "tcp.timeouts",
	"packet.pool_gets", "packet.pool_releases", "packet.pool_slabs",
}

// report is the outcome of one run of one workload: end-to-end metrics when
// Traced is false, per-layer metrics when it is true.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`

	// Attempted counts application requests issued over the measured
	// repetitions; Failed counts requests lost plus every request of a
	// repetition that errored, missed its simulated deadline, broke a
	// predicate or produced the wrong digest.
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Digest is the digest the repetitions agreed on ("" when they did not,
	// or for a workload that does not replay).
	Digest          string `json:"digest,omitempty"`
	DistinctDigests int    `json:"distinct_digests"`

	Metrics map[string]stat `json:"metrics"`
	// TraceFile is where the traced repetition's spans were written.
	TraceFile string `json:"trace_file,omitempty"`
}

// fileReport is the schema of -json OUT, and what -compare reads.
type fileReport struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Reports    []report `json:"reports"`
}

const reportSchema = "diablo/bench/v1"

func writeReports(path string, reports []report) error {
	data, err := json.MarshalIndent(fileReport{
		Schema:     reportSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reports:    reports,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func readReports(path string) (fileReport, error) {
	var fr fileReport
	data, err := os.ReadFile(path)
	if err != nil {
		return fr, err
	}
	if err := json.Unmarshal(data, &fr); err != nil {
		return fr, fmt.Errorf("%s: %w", path, err)
	}
	if fr.Schema != reportSchema {
		return fr, fmt.Errorf("%s: schema %q, want %q", path, fr.Schema, reportSchema)
	}
	return fr, nil
}

// runOpts sizes one run of one workload.
type runOpts struct {
	seed uint64
	// budget bounds the measuring phase; reps, when positive, fixes the
	// number of measured repetitions instead.
	budget time.Duration
	reps   int
	// reference is the digest every repetition of a deterministic workload
	// must produce ("" = whatever the warm-up repetition produced, which
	// still requires all repetitions to agree).
	reference string
	// probeBudget is the time each isolated probe runs in a traced run.
	probeBudget time.Duration
	// outDir receives the traced run's span file.
	outDir string
}

// The least number of measured repetitions (traced run: pairs of them) a
// budgeted run makes, however slow the host.
const (
	minReps  = 3
	minPairs = 2
)

// repLoop calls rep until the budget, counted from start, or the fixed count
// is used up. A new repetition starts only if one of the mean duration so far
// still fits, so a run ends near its budget rather than a repetition past it.
func repLoop(o runOpts, start time.Time, atLeast int, rep func()) {
	loopStart := time.Now()
	for n := 0; ; n++ {
		if o.reps > 0 {
			if n == o.reps {
				return
			}
		} else if n >= atLeast && time.Since(start)+time.Since(loopStart)/time.Duration(n) > o.budget {
			return
		}
		rep()
	}
}

// Set-up passes of a budgeted run: as many as fit in setupBudget, within
// these limits.
const (
	setupBudget    = 2 * time.Second
	minSetupPasses = 5
	maxSetupPasses = 200
)

// setupPasses samples the set-up time (see setupPass).
func setupPasses(w workload, o runOpts) ([]float64, error) {
	var samples []float64
	start := time.Now()
	for n := 0; ; n++ {
		if o.reps > 0 {
			if n == o.reps {
				return samples, nil
			}
		} else if n == maxSetupPasses || n >= minSetupPasses && time.Since(start) > setupBudget {
			return samples, nil
		}
		s, err := setupPass(w, o.seed)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
}

// account folds the repetitions' outcomes into the report: failure counts,
// digest agreement, correctness.
func (r *report) account(w workload, reference string, samples []sample) {
	digests := map[string]bool{}
	for i, s := range samples {
		r.Attempted += s.sim.attempted
		failure := s.failure
		if failure == "" && w.deterministic && s.digest != reference {
			failure = fmt.Sprintf("digest %s, want %s", s.digest, reference)
		}
		if failure != "" {
			r.Failed += s.sim.attempted
			r.Failures = append(r.Failures, fmt.Sprintf("repetition %d: %s", i, failure))
		} else {
			r.Failed += s.sim.lost
		}
		if s.digest != "" {
			digests[s.digest] = true
		}
	}
	r.DistinctDigests = len(digests)
	if len(digests) == 1 && w.deterministic {
		r.Digest = samples[0].digest
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// warmUp runs the untimed first repetition (page faults, heap growth, lazy
// runtime set-up) and returns the digest reference for the measured ones: the
// recorded one if there is one, else the warm-up's own.
func warmUp(w workload, o runOpts, sequential bool) string {
	s := measure(w, o.seed, sequential, false)
	if o.reference != "" {
		return o.reference
	}
	return s.digest
}

// runTimed measures the end-to-end metrics: a warm-up, then untraced
// repetitions of the workload's public entry point.
func runTimed(w workload, o runOpts) (report, error) {
	r := report{Workload: w.name, Seed: o.seed, Metrics: map[string]stat{}}
	o.reference = warmUp(w, o, false)
	start := time.Now()
	setup, err := setupPasses(w, o)
	if err != nil {
		return r, err
	}
	var samples []sample
	repLoop(o, start, minReps, func() { samples = append(samples, measure(w, o.seed, false, false)) })
	r.account(w, o.reference, samples)

	var cpu, wall, allocs, rate []float64
	for _, s := range samples {
		if s.sim.simSeconds == 0 || s.packets == 0 || s.runCPUS == 0 {
			continue // the repetition never ran; it is counted as failed above
		}
		cpu = append(cpu, s.runCPUS/s.sim.simSeconds)
		wall = append(wall, s.runWallS/s.sim.simSeconds)
		allocs = append(allocs, float64(s.mallocs)/float64(s.packets))
		rate = append(rate, float64(s.packets)/s.runCPUS)
	}
	r.Metrics["cpu_s_per_sim_s"] = newStat("s/s", cpu)
	r.Metrics["allocs_per_pkt"] = newStat("1/pkt", allocs)
	r.Metrics["peak_rss_mb"] = newStat("MB", []float64{peakRSSMB()})
	r.Metrics["setup_s"] = newStat("s", setup)
	r.Metrics["wall_s_per_sim_s"] = newStat("s/s", wall)
	r.Metrics["sim_pkts_per_cpu_s"] = newStat("1/s", rate)
	return r, nil
}

// runTraced measures the per-layer metrics: the isolated probes, then pairs
// of one untraced and one traced repetition of the same (sequential)
// configuration, whose CPU ratio is the tracing overhead. A partitioned
// workload adds one observed run on its own engine for the barrier figures.
func runTraced(w workload, o runOpts) (report, error) {
	r := report{Workload: w.name, Seed: o.seed, Traced: true, Metrics: map[string]stat{}}
	values := map[string][]float64{}
	add := func(name string, v float64) { values[name] = append(values[name], v) }

	o.reference = warmUp(w, o, true)
	start := time.Now()
	probed, err := runProbes(o.probeBudget)
	if err != nil {
		return r, err
	}
	for name, ns := range probed {
		add(name, ns)
	}

	engine := engineFigures{}
	if w.partitioned() {
		if engine, err = observeEngine(w, o.seed); err != nil {
			return r, err
		}
	}
	add("sim.quanta", float64(engine.quanta))
	add("sim.partition_util", engine.partitionUtil)
	add("sim.barrier_park_share", engine.parkShare)

	var samples []sample
	var plainCPU, tracedCPU []float64
	var last *traceRun
	repLoop(o, start, minPairs, func() {
		plain := measure(w, o.seed, true, false)
		traced := measure(w, o.seed, true, true)
		samples = append(samples, plain, traced)
		tr := traced.trace
		if plain.failure != "" || traced.failure != "" || tr.counts == nil {
			return
		}
		plainCPU = append(plainCPU, plain.runCPUS)
		tracedCPU = append(tracedCPU, traced.runCPUS)
		run := float64(tr.runNS)
		for _, layer := range handlerLayers {
			agg := tr.layerAgg(layer)
			add(layer+".host_share", float64(agg.NS)/run)
			add(layer+".events", float64(agg.Events))
			add(layer+".ns_per_event", ratio(float64(agg.NS), float64(agg.Events)))
		}
		add("sim.host_share", float64(tr.selfNS())/run)
		add("sim.events", float64(tr.counts["sim.events"]))
		add("sim.ns_per_event", ratio(float64(tr.selfNS()), float64(tr.counts["sim.events"])))
		add("core.setup_s", traced.setupS)
		add("core.teardown_s", float64(tr.teardownNS)/1e9)
		for _, name := range countMetrics {
			add(name, float64(tr.counts[name]))
		}
		last = tr
	})
	r.account(w, o.reference, samples)
	if last == nil {
		return r, fmt.Errorf("%s: no traced repetition succeeded: %v", w.name, r.Failures)
	}
	add("trace_overhead", median(tracedCPU)/median(plainCPU)-1)

	for _, def := range perLayer {
		st := newStat(def.unit, values[def.name])
		if def.unit == "count" && w.deterministic && st.Min != st.Max {
			r.Failures = append(r.Failures, fmt.Sprintf("count %s differs between repetitions: %g..%g", def.name, st.Min, st.Max))
			r.Correct = false
		}
		r.Metrics[def.name] = st
	}
	if r.TraceFile, err = last.write(o.outDir, w.name, o.seed); err != nil {
		return r, err
	}
	return r, nil
}

// engineFigures are the partitioned engine's execution-balance numbers.
type engineFigures struct {
	quanta        uint64
	partitionUtil float64 // mean share of quanta in which a partition had work
	// parkShare is the share of the workers' wall time spent off the CPU
	// during the run phase, 1 - CPU/(wall x workers): what the barrier's
	// parked waits look like from outside. The engine's own spin/park
	// counters are kept out of the manifest (they are host-dependent) and no
	// public function returns them.
	parkShare float64
}

// observeEngine runs the workload once on its partitioned engine through
// core.RunMemcachedObserved and reads the manifest's engine block.
func observeEngine(w workload, seed uint64) (engineFigures, error) {
	cfg := *w.mc
	cfg.Seed = seed
	var (
		workers  int
		firstAt  time.Time
		firstCPU float64
	)
	cfg.OnCluster = func(c *core.Cluster) {
		workers = c.Workers()
		atFirstEvent(c, func() {
			firstCPU = cpuSeconds()
			firstAt = time.Now()
		})
	}
	_, o, err := core.RunMemcachedObserved(cfg, core.ObserveConfig{TraceEvents: -1})
	if err != nil {
		return engineFigures{}, fmt.Errorf("%s: observed run: %w", w.name, err)
	}
	wall, cpu := time.Since(firstAt).Seconds(), cpuSeconds()-firstCPU
	engine := o.BuildManifest("bench/"+w.name, seed, nil).Engine
	if engine == nil || len(engine.Partitions) == 0 {
		return engineFigures{}, fmt.Errorf("%s: observed run has no engine block (not partitioned?)", w.name)
	}
	f := engineFigures{quanta: engine.Quanta, parkShare: 1 - cpu/(wall*float64(workers))}
	for _, p := range engine.Partitions {
		f.partitionUtil += p.Utilization / float64(len(engine.Partitions))
	}
	return f, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return newStat("", v).Median }

// print writes the human-readable table of a report.
func (r report) print(out io.Writer) {
	mode := "end-to-end (tracing off)"
	defs := append(append([]metricDef{}, endToEnd...), informational...)
	if r.Traced {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(out, "\n== %s  seed=%d  %s\n", r.Workload, r.Seed, mode)
	for _, def := range defs {
		fmt.Fprintf(out, "  %-24s %s\n", def.name, r.Metrics[def.name])
	}
	fmt.Fprintf(out, "  failed/attempted         %d/%d   distinct_digests=%d", r.Failed, r.Attempted, r.DistinctDigests)
	if r.Digest != "" {
		fmt.Fprintf(out, "   digest=%s", r.Digest)
	}
	fmt.Fprintln(out)
	if r.TraceFile != "" {
		fmt.Fprintf(out, "  spans written to %s\n", r.TraceFile)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

// resultLine is the driver's contract: the last line of standard output.
func (r report) resultLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, def := range defs {
		st, ok := r.Metrics[def.name]
		if !ok || st.N == 0 || math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, def.name)
		}
		metrics[def.name] = value{Value: st.Median, Unit: def.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}
