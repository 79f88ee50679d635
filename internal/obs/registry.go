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
//   - Instruments are pull-style (GaugeFunc): the probe reads model state
//     on the tick, so the model holds no instrument and an unobserved run
//     pays nothing.
package obs

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"

	"diablo/internal/sim"
)

// SampleInterval is the registry's sampling tick: 1 ms of simulated time.
const SampleInterval = 1 * sim.Millisecond

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

// Registry samples registered instruments every SampleInterval of
// simulated time. Register instruments before the run, call Start before the
// engines run, and Stop (or nothing — ticks die with the run) afterwards.
type Registry struct {
	insts   []*instrument
	names   map[string]bool
	started bool
	stopped bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// GaugeFunc registers a pull-style gauge: probe is evaluated on every tick,
// on sched's event context. The probe must only read state owned by sched's
// partition (the worker-invariance contract). Names must be unique, and
// registration must precede Start.
func (r *Registry) GaugeFunc(sched sim.Scheduler, name string, probe func() float64) {
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
	r.insts = append(r.insts, &instrument{name: name, sched: sched, probe: probe})
}

// Start begins sampling: every instrument takes an immediate sample and then
// one every SampleInterval, each on its own scheduler. Call once, before
// the engines run (instruments sample from simulated time zero onward, on
// the quantum-aligned tick grid).
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
	in.sched.After(SampleInterval, func() {
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
	fmt.Fprintf(&b, "# diablo stats series v1\n# interval_ps %d\n", int64(SampleInterval))
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
