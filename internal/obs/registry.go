// Package obs is DIABLO's observability layer: a deterministic,
// simulated-time stats registry, a Chrome trace-event exporter, and the
// machine-readable run manifest.
//
// The paper's evaluation (§4-§6) depends on seeing inside the simulated
// datacenter — per-switch queue depths, NIC ring occupancy, per-FPGA
// (here: per-partition) utilization — without perturbing it. The registry
// follows the same discipline as the models it observes:
//
//   - Sampling happens on simulated-time edges only, never on the wall
//     clock. Each instrument schedules its own tick chain on the scheduler
//     of the partition that owns the observed state, so a sample reads
//     state that is quiescent from its partition's point of view.
//   - An instrument's probe must touch only state owned by its scheduler's
//     partition. Under that rule the recorded series are a pure function of
//     the model: running with 1, 2 or N workers produces byte-identical
//     series (asserted in core's worker-invariance test).
//   - Detached components pay nothing: the Counter/Gauge/Histogram handles
//     are nil-safe, so instrumented code paths cost one nil test when no
//     registry is attached (benchmarked in this package).
package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"

	"diablo/internal/metrics"
	"diablo/internal/sim"
)

// DefaultSampleEvery is the default sampling tick: 1 ms of simulated time.
const DefaultSampleEvery = 1 * sim.Millisecond

// Sample is one (simulated time, value) observation.
type Sample struct {
	At    sim.Time
	Value float64
}

// TimeSeries is a named, time-ordered series of samples.
type TimeSeries struct {
	Name    string
	Samples []Sample
}

// instrument is one registered probe and its recorded series. Samples are
// only appended from the owning scheduler's event context, so no lock is
// needed even in a partitioned run.
type instrument struct {
	name    string
	sched   sim.Scheduler
	probe   func() float64
	samples []Sample
}

// Registry samples registered instruments on a fixed simulated-time grid.
// Register instruments before the run, call Start before the engines run,
// and Stop (or nothing — ticks die with the run) afterwards.
type Registry struct {
	interval sim.Duration
	insts    []*instrument
	names    map[string]bool
	hists    []*Histogram
	started  bool
	stopped  bool
}

// NewRegistry creates a registry sampling every interval of simulated time
// (DefaultSampleEvery if interval <= 0).
func NewRegistry(interval sim.Duration) *Registry {
	if interval <= 0 {
		interval = DefaultSampleEvery
	}
	return &Registry{interval: interval, names: make(map[string]bool)}
}

// Interval returns the sampling tick.
func (r *Registry) Interval() sim.Duration { return r.interval }

// register adds an instrument, enforcing unique hierarchical names and
// registration-before-Start.
func (r *Registry) register(sched sim.Scheduler, name string, probe func() float64) *instrument {
	if r.started {
		panic(fmt.Sprintf("obs: instrument %q registered after Start", name))
	}
	if name == "" || sched == nil || probe == nil {
		panic("obs: instrument needs a name, a scheduler and a probe")
	}
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate instrument name %q", name))
	}
	r.names[name] = true
	in := &instrument{name: name, sched: sched, probe: probe}
	r.insts = append(r.insts, in)
	return in
}

// GaugeFunc registers a pull-style gauge: probe is evaluated on every tick,
// on sched's event context. The probe must only read state owned by sched's
// partition (the worker-invariance contract).
func (r *Registry) GaugeFunc(sched sim.Scheduler, name string, probe func() float64) {
	r.register(sched, name, probe)
}

// Counter registers a push-style cumulative counter and returns its handle.
// The handle is nil-safe: a nil *Counter ignores Add/Inc, so components can
// hold one unconditionally and pay a single nil test when detached.
func (r *Registry) Counter(sched sim.Scheduler, name string) *Counter {
	c := &Counter{}
	r.register(sched, name, func() float64 { return c.v })
	return c
}

// Gauge registers a push-style gauge and returns its nil-safe handle.
func (r *Registry) Gauge(sched sim.Scheduler, name string) *Gauge {
	g := &Gauge{}
	r.register(sched, name, func() float64 { return g.v })
	return g
}

// Histogram registers a latency histogram. The sampled series carries the
// cumulative observation count; the full distribution is available from
// Histograms for the run manifest. Record must only be called from sched's
// partition.
func (r *Registry) Histogram(sched sim.Scheduler, name string) *Histogram {
	h := &Histogram{name: name, h: metrics.NewHistogram()}
	r.register(sched, name, func() float64 { return float64(h.h.Count()) })
	r.hists = append(r.hists, h)
	return h
}

// Counter is a nil-safe cumulative counter handle.
type Counter struct{ v float64 }

// Inc adds one. A nil receiver is a no-op (the detached fast path).
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d. A nil receiver is a no-op (the detached fast path).
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a nil-safe last-value gauge handle.
type Gauge struct{ v float64 }

// Set records v. A nil receiver is a no-op (the detached fast path).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the last set value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a nil-safe latency-distribution handle.
type Histogram struct {
	name string
	h    *metrics.Histogram
}

// Record adds one observation. A nil receiver is a no-op.
func (h *Histogram) Record(d sim.Duration) {
	if h != nil {
		h.h.Record(d)
	}
}

// Name returns the instrument name ("" on a nil receiver).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Snapshot returns the underlying distribution (nil on a nil receiver).
func (h *Histogram) Snapshot() *metrics.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// Histograms returns the registered histogram handles in name order.
func (r *Registry) Histograms() []*Histogram {
	out := append([]*Histogram(nil), r.hists...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Start begins sampling: every instrument takes an immediate sample and then
// one every interval, each on its own scheduler. Call once, before the
// engines run (instruments sample from simulated time zero onward, on the
// quantum-aligned tick grid).
func (r *Registry) Start() {
	if r.started {
		panic("obs: Start called twice")
	}
	r.started = true
	for _, in := range r.insts {
		r.tick(in)
	}
}

// tick samples the instrument and schedules the next tick on the same
// scheduler, keeping the chain wholly inside the owning partition.
func (r *Registry) tick(in *instrument) {
	in.samples = append(in.samples, Sample{At: in.sched.Now(), Value: in.probe()})
	in.sched.After(r.interval, func() {
		if !r.stopped {
			r.tick(in)
		}
	})
}

// Stop ends sampling: pending tick events become no-ops. Call after the run
// has returned (it is not safe to call concurrently with a running engine).
func (r *Registry) Stop() { r.stopped = true }

// Series returns every instrument's recorded series, sorted by name so the
// output order never depends on registration order or map iteration.
func (r *Registry) Series() []TimeSeries {
	out := make([]TimeSeries, 0, len(r.insts))
	for _, in := range r.insts {
		out = append(out, TimeSeries{Name: in.name, Samples: in.samples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// formatValue renders a sample value canonically: shortest round-trip
// representation, identical on every platform.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// EncodeText writes the canonical text rendering of every series: a header,
// then per series a "series <name>" line followed by "<at_ps> <value>"
// sample lines. This rendering is the byte-identical artifact the
// worker-invariance contract is asserted against, and the input to Hash.
func (r *Registry) EncodeText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# diablo stats series v1\n# interval_ps %d\n", int64(r.interval))
	for _, ts := range r.Series() {
		fmt.Fprintf(&b, "series %s\n", ts.Name)
		for _, s := range ts.Samples {
			fmt.Fprintf(&b, "%d %s\n", int64(s.At), formatValue(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Hash returns an FNV-64a digest of the canonical text encoding, prefixed
// with the algorithm name. Two runs with identical model behavior produce
// identical hashes regardless of worker count.
func (r *Registry) Hash() string {
	h := fnv.New64a()
	_ = r.EncodeText(h)
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}
