package core

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"diablo/internal/apps/memcache"
	"diablo/internal/fault"
	"diablo/internal/sim"
)

// Deterministic replay: running the identical configuration twice in the
// same process must reproduce every field of the result — histograms,
// per-hop breakdowns, drop and retry counters, elapsed simulated time.
// This complements the PR 1 determinism tests (which hold the run fixed and
// vary partition/worker counts) by pinning the other axis: repeated runs.
// A wall-clock read or an unseeded random draw in model code fails it, and
// internal/analysis checks statically for the two loopholes it sees only at
// random: goroutines and map-order scheduling.

func TestMemcachedReplayDeterminism(t *testing.T) {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 15
	first, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memcached replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestMemcachedTCPReplayDeterminism is the TCP counterpart: a client holds
// one connection per server it talked to, and tearing them down advances
// simulated time, so the close order must be a function of the model.
func TestMemcachedTCPReplayDeterminism(t *testing.T) {
	type outcome struct {
		elapsed, p99 sim.Duration
		events, segs uint64
	}
	run := func() outcome {
		cfg := smallMemcached()
		cfg.Proto = memcache.TCP
		cfg.RequestsPerClient = 10
		var cluster *Cluster
		cfg.OnCluster = func(c *Cluster) { cluster = c }
		res, err := RunMemcached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{elapsed: res.Elapsed, p99: res.Overall.Percentile(0.99), events: cluster.Events()}
		for _, m := range cluster.Machines {
			out.segs += m.TCPStats().SegsOut
		}
		return out
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("TCP memcached replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestMemcachedReplayDeterminismPartitioned(t *testing.T) {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 15
	cfg.Partitions = 4
	first, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("partitioned memcached replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestMemcachedReplayAcrossWorkerCounts crosses both axes over the tiered
// event queue and the spin-then-park barrier: at 1, 2, and NumCPU workers,
// repeated runs must replay byte-identically AND every worker count must
// agree with the single-worker result. This is the determinism gate for the
// hot-path engine work (tiered queue, generation-tagged cancellation,
// allocation-free barrier exchange): any tie-break or merge-order slip in
// those structures shows up here as a field-level diff.
func TestMemcachedReplayAcrossWorkerCounts(t *testing.T) {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 15
	run := func(workers int) *MemcachedResult {
		c := cfg
		c.Partitions = workers
		res, err := RunMemcached(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	workerCounts := []int{1, 2, runtime.NumCPU()}
	for _, w := range workerCounts {
		first := run(w)
		second := run(w)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("workers=%d replay diverged:\nfirst:  %+v\nsecond: %+v", w, first, second)
		}
		if !reflect.DeepEqual(first, want) {
			t.Errorf("workers=%d diverged from workers=1:\n got %+v\nwant %+v", w, first, want)
		}
	}
}

// TestMemcachedFaultReplayAcrossWorkerCounts is the determinism gate for the
// fault layer: with a schedule mixing probabilistic loss, a straggler and a
// NIC stall, repeated runs must replay byte-identically at 1, 2, and NumCPU
// workers, and every worker count must agree with the single-worker result —
// including the fault-edge log and fault-drop counters. Fault edges fire on
// their targets' own partitions and loss streams are seeded per component
// from the plan seed, so the parallel engine's interleaving must not leak
// into any observable.
func TestMemcachedFaultReplayAcrossWorkerCounts(t *testing.T) {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 12
	cfg.Faults = fault.NewPlan(cfg.Seed).
		DegradeRackUplink(0, sim.Time(5*sim.Millisecond), 20*sim.Millisecond, 0.3, 0).
		StraggleNode(40, 0, 50*sim.Millisecond, 3).
		StallNIC(41, sim.Time(10*sim.Millisecond), 2*sim.Millisecond)
	run := func(workers int) *MemcachedResult {
		c := cfg
		c.Partitions = workers
		res, err := RunMemcached(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	if len(want.FaultEdges) != 8 {
		t.Fatalf("recorded %d fault edges, want 8 (2 uplink directions x2 + straggle x2 + stall x2): %v", len(want.FaultEdges), want.FaultEdges)
	}
	if want.FaultDrops == 0 {
		t.Fatal("lossy uplink dropped nothing")
	}
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		first := run(w)
		second := run(w)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("workers=%d faulted replay diverged:\nfirst:  %+v\nsecond: %+v", w, first, second)
		}
		if !reflect.DeepEqual(first, want) {
			t.Errorf("workers=%d faulted run diverged from workers=1:\n got %+v\nwant %+v", w, first, want)
		}
	}
}

// TestReplayDeterminismFullScale is the nightly determinism gate: the
// default 4-array (1984-node) memcached cluster, under a fault schedule
// spanning rack, fabric and node targets, must replay byte-identically
// across 1, 2 and NumCPU workers. It takes minutes rather than seconds, so
// it runs only when DIABLO_REPLAY_FULL is set (the nightly workflow exports
// it); regular CI covers the reduced-scale variants above.
func TestReplayDeterminismFullScale(t *testing.T) {
	if os.Getenv("DIABLO_REPLAY_FULL") == "" {
		t.Skip("set DIABLO_REPLAY_FULL=1 (nightly CI) to run the full-scale replay suite")
	}
	cfg := DefaultMemcached()
	cfg.RequestsPerClient = 40
	cfg.Faults = fault.NewPlan(cfg.Seed).
		DegradeRackUplink(3, sim.Time(10*sim.Millisecond), 40*sim.Millisecond, 0.25, 0).
		FailSwitch(fault.Array, 1, sim.Time(20*sim.Millisecond), 10*sim.Millisecond).
		StraggleNode(100, 0, 100*sim.Millisecond, 2).
		StallNIC(200, sim.Time(15*sim.Millisecond), 3*sim.Millisecond)
	run := func(workers int) *MemcachedResult {
		c := cfg
		c.Partitions = workers
		res, err := RunMemcached(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	if want.FaultDrops == 0 {
		t.Fatal("full-scale fault schedule dropped nothing")
	}
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		first := run(w)
		second := run(w)
		if !reflect.DeepEqual(first, second) {
			t.Errorf("workers=%d full-scale replay diverged", w)
		}
		if !reflect.DeepEqual(first, want) {
			t.Errorf("workers=%d full-scale run diverged from workers=1", w)
		}
	}
}

func TestIncastReplayDeterminism(t *testing.T) {
	cfg := DefaultIncast(8)
	cfg.Iterations = 6
	first, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("incast replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}
