package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"diablo/internal/fault"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// observedMemcached is the reduced-scale config the observability tests
// share: single array, few requests, bounded client count.
func observedMemcached() MemcachedConfig {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 10
	cfg.MaxClients = 64
	cfg.Warmup = 2
	cfg.Partitions = 2
	return cfg
}

// TestObservedSeriesWorkerInvariant is the tentpole determinism gate: the
// registry's sampled series must be byte-identical whether the partitions
// execute on 1, 2 or NumCPU OS workers. Every instrument samples on its
// owning partition's scheduler and probes only partition-local state, so
// worker count must not leak into any sampled value.
func TestObservedSeriesWorkerInvariant(t *testing.T) {
	ocfg := ObserveConfig{
		SampleEvery: 2 * sim.Millisecond,
		TraceEvents: -1, // series invariance is the subject; skip the trace
	}
	run := func(workers int) (string, string) {
		cfg := observedMemcached()
		cfg.Partitions = workers
		_, o, err := RunMemcachedObserved(cfg, ocfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var b strings.Builder
		if err := o.Registry.EncodeText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), o.Registry.Hash()
	}
	wantText, wantHash := run(1)
	if !strings.Contains(wantText, "series rack0/tor/port0/qdepth") {
		t.Fatalf("expected hierarchical switch series, got:\n%.600s", wantText)
	}
	for _, w := range []int{2, runtime.NumCPU()} {
		text, hash := run(w)
		if hash != wantHash {
			t.Errorf("workers=%d stats hash %s != workers=1 %s", w, hash, wantHash)
		}
		if text != wantText {
			i := 0
			for i < len(text) && i < len(wantText) && text[i] == wantText[i] {
				i++
			}
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Errorf("workers=%d series diverge near byte %d:\n1: %q\n%d: %q",
				w, i, wantText[lo:min(i+80, len(wantText))], w, text[lo:min(i+80, len(text))])
		}
	}
}

// TestObservedManifest runs a faulted, observed memcached experiment and
// checks the manifest carries the run's identity, series, engine balance and
// fault edges — and round-trips as JSON.
func TestObservedManifest(t *testing.T) {
	cfg := observedMemcached()
	cfg.Seed = 11
	cfg.Faults = fault.NewPlan(cfg.Seed).
		DegradeRackUplink(0, sim.Time(5*sim.Millisecond), 20*sim.Millisecond, 0.5, 0)

	res, o, err := RunMemcachedObserved(cfg, ObserveConfig{SampleEvery: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no samples")
	}
	m := o.BuildManifest("memcached", cfg.Seed, map[string]any{"arrays": cfg.Arrays})
	if m.Schema != obs.ManifestSchema {
		t.Fatalf("schema = %q", m.Schema)
	}
	if m.Seed != 11 || m.Experiment != "memcached" {
		t.Fatalf("identity wrong: %+v", m)
	}
	if m.Partitions != 17 { // 16 racks + fabric
		t.Fatalf("partitions = %d, want 17", m.Partitions)
	}
	if want := min(2, runtime.GOMAXPROCS(0)); m.Workers != want {
		t.Fatalf("workers = %d, want %d", m.Workers, want)
	}
	if m.Events == 0 || m.ElapsedPs == 0 {
		t.Fatalf("events/elapsed missing: %+v", m)
	}
	if m.StatsHash != o.Registry.Hash() {
		t.Fatal("stats hash mismatch")
	}
	if len(m.Series) == 0 {
		t.Fatal("no series in manifest")
	}
	if m.Engine == nil || m.Engine.Quanta == 0 || len(m.Engine.Partitions) != 17 {
		t.Fatalf("engine introspection missing: %+v", m.Engine)
	}
	for _, p := range m.Engine.Partitions {
		if p.Utilization < 0 || p.Utilization > 1 {
			t.Fatalf("partition %d utilization %v out of range", p.ID, p.Utilization)
		}
	}
	if len(m.FaultEdges) == 0 {
		t.Fatal("fault edges missing from manifest")
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back["schema"] != obs.ManifestSchema {
		t.Fatalf("round-trip schema = %v", back["schema"])
	}

	// The trace must carry the fault edges as global instants.
	globals := 0
	for _, ev := range o.Trace.Events() {
		if ev.Ph == "i" && ev.Scope == "g" {
			globals++
		}
	}
	if globals == 0 {
		t.Fatal("fault markers missing from trace")
	}
}

// TestPartitionedRunOnOneP runs a two-rack cluster with WithPartitions(2)
// where there is a single P. A second worker there could only spin at the
// barrier on the P its peer needs, so the engine must not start one: the
// manifest, which carries the worker count, is the one-worker run's.
func TestPartitionedRunOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(workers int) []byte {
		cfg := DefaultMemcached()
		cfg.Topology = topology.Params{ServersPerRack: 8, RacksPerArray: 2, Arrays: 1}
		cfg.ServersPerRack = 1
		cfg.RequestsPerClient = 8
		cfg.StartSpread = sim.Millisecond
		cfg.Partitions = workers
		_, o, err := RunMemcachedObserved(cfg, ObserveConfig{SampleEvery: sim.Millisecond, TraceEvents: -1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := o.BuildManifest("one-p", cfg.Seed, nil).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want, got := run(1), run(2)
	if !bytes.Equal(got, want) {
		t.Errorf("WithPartitions(2) on one P: manifest differs from WithPartitions(1):\n got %s\nwant %s", got, want)
	}
}

// TestIncastObservedTrace checks the serial-engine path end to end: lanes,
// kernel/syscall/packet spans, app iteration spans, per-node gauges.
func TestIncastObservedTrace(t *testing.T) {
	cfg := DefaultIncast(4)
	cfg.Iterations = 4
	cfg.BlockBytes = 64 * 1024
	var o *Observation
	cfg.OnCluster = func(c *Cluster) {
		o = Observe(c, ObserveConfig{PerNode: true, SampleEvery: sim.Millisecond})
	}
	res, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.finished {
		t.Fatal("RunIncast left the observation unfinished")
	}
	if len(res.IterTimes) != 4 {
		t.Fatalf("iterations = %d", len(res.IterTimes))
	}

	cats := map[string]int{}
	names := map[string]bool{}
	for _, ev := range o.Trace.Events() {
		if ev.Ph == "M" {
			if ev.Args != nil {
				names[ev.Args["name"]] = true
			}
			continue
		}
		cats[ev.Cat]++
	}
	for _, cat := range []string{"kernel", "syscall", "packet", "iteration"} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans in trace (got %v)", cat, cats)
		}
	}
	if !names["partition 0 (rack 0)"] {
		t.Errorf("rack partition lane missing: %v", names)
	}
	if !names["node0 app"] {
		t.Errorf("client app lane missing: %v", names)
	}

	// Per-node gauges landed in the registry.
	series := o.Registry.Series()
	want := map[string]bool{"node0/runq": false, "node0/nic/rxq": false, "node0/tcp/retransmits": false}
	for _, s := range series {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("per-node series %q missing", name)
		}
	}

	// Whole trace serializes to valid JSON.
	var buf bytes.Buffer
	if err := o.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}

// TestObservedFaultedRuns: one run carries faults (cfg.Faults) and an
// observation (Observe from OnCluster) at once, and its single trace holds
// both the workload's app spans and the fault edges as global instants.
func TestObservedFaultedRuns(t *testing.T) {
	// count returns the trace's spans of category cat and its global
	// instants.
	count := func(o *Observation, cat string) (spans, globals int) {
		for _, ev := range o.Trace.Events() {
			switch {
			case ev.Ph == "i" && ev.Scope == "g":
				globals++
			case ev.Ph == "X" && ev.Cat == cat:
				spans++
			}
		}
		return spans, globals
	}
	t.Run("memcached", func(t *testing.T) {
		cfg := observedMemcached()
		cfg.Faults = fault.NewPlan(cfg.Seed).
			DegradeRackUplink(0, sim.Time(5*sim.Millisecond), 20*sim.Millisecond, 0.5, 0)
		var o *Observation
		cfg.OnCluster = func(c *Cluster) { o = Observe(c, ObserveConfig{}) }
		res, err := RunMemcached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spans, globals := count(o, "request")
		if uint64(spans) != res.Completed {
			t.Errorf("%d request spans, want one per completed request (%d)", spans, res.Completed)
		}
		if globals != len(res.FaultEdges) || globals == 0 {
			t.Errorf("%d fault instants, want one per fault edge (%d)", globals, len(res.FaultEdges))
		}
	})
	t.Run("incast", func(t *testing.T) {
		cfg := DefaultIncast(4)
		cfg.Iterations = 3
		cfg.BlockBytes = 64 * 1024
		cfg.Faults = fault.NewPlan(cfg.Seed).DegradeEdge(0, fault.Down, 0, 600*sim.Second, 0.1, 0)
		var o *Observation
		cfg.OnCluster = func(c *Cluster) { o = Observe(c, ObserveConfig{}) }
		res, err := RunIncast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spans, globals := count(o, "iteration")
		if spans != len(res.IterTimes) {
			t.Errorf("%d iteration spans, want %d", spans, len(res.IterTimes))
		}
		if globals == 0 {
			t.Error("fault markers missing from trace")
		}
	})
}

// TestObserveDoesNotPerturbResults: an attached observation must not change
// the simulation outcome — the model sees only extra no-op sampling events.
func TestObserveDoesNotPerturbResults(t *testing.T) {
	cfg := observedMemcached()
	plain, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed, o, err := RunMemcachedObserved(cfg, ObserveConfig{SampleEvery: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Samples != observed.Samples || plain.Retried != observed.Retried ||
		plain.Elapsed != observed.Elapsed || plain.SwitchDrops != observed.SwitchDrops {
		t.Fatalf("observation perturbed the run:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if plain.Overall.Mean() != observed.Overall.Mean() || plain.Overall.Max() != observed.Overall.Max() {
		t.Fatal("observation perturbed the latency distribution")
	}
	if o.Trace.Len() == 0 {
		t.Fatal("observed run recorded no trace events")
	}
}
