package core

import (
	"strings"
	"testing"

	"diablo/internal/fault"
	"diablo/internal/sim"
)

// A fault plan must do measurable, attributable damage: the faulted run loses
// frames at the fault layer (not in switch buffers), retries/retransmits
// climb, and the latency tail inflates against the same config run healthy,
// which sees no fault activity at all.

func TestMemcachedToRFlapDegrades(t *testing.T) {
	cfg := DefaultMemcached()
	cfg.Arrays = 1
	cfg.MaxClients = 48
	cfg.RequestsPerClient = 20
	cfg.Warmup = 2
	baseline, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rack 0's uplink drops half its frames for 150 ms from 25 ms.
	cfg.Faults = fault.NewPlan(cfg.Seed).
		DegradeRackUplink(0, sim.Time(25*sim.Millisecond), 150*sim.Millisecond, 0.5, 0)
	faulted, err := RunMemcached(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if baseline.FaultDrops != 0 || len(baseline.FaultEdges) != 0 {
		t.Fatalf("baseline run saw fault activity: drops=%d edges=%v", baseline.FaultDrops, baseline.FaultEdges)
	}
	if faulted.FaultDrops == 0 {
		t.Fatal("lossy uplink dropped no frames")
	}
	if faulted.Retried <= baseline.Retried {
		t.Fatalf("retries did not climb under loss: baseline %d, faulted %d", baseline.Retried, faulted.Retried)
	}
	// A retried UDP request costs at least one 250 ms timeout, so the tail
	// must inflate well past the healthy run's.
	if f, b := faulted.Overall.Percentile(0.999), baseline.Overall.Percentile(0.999); f <= b {
		t.Fatalf("p99.9 did not inflate: baseline %v, faulted %v", b, f)
	}
	if faulted.Overall.Max() < 200*sim.Millisecond {
		t.Fatalf("faulted max latency %v shows no timeout-driven retry", faulted.Overall.Max())
	}
	if got := len(faulted.FaultEdges); got != 4 {
		t.Fatalf("recorded %d fault edges, want 4 (2 directions x apply/clear): %v", got, faulted.FaultEdges)
	}
}

func TestIncastLossyUplinkDegrades(t *testing.T) {
	cfg := DefaultIncast(6)
	cfg.Iterations = 8
	baseline, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The client's downlink (switch->node 0) drops 10% of frames all run long.
	cfg.Faults = fault.NewPlan(cfg.Seed).DegradeEdge(0, fault.Down, 0, 600*sim.Second, 0.1, 0)
	var cluster *Cluster
	cfg.OnCluster = func(c *Cluster) { cluster = c }
	faulted, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.FaultDrops() == 0 {
		t.Fatal("lossy downlink dropped no frames")
	}
	if faulted.Retransmits <= baseline.Retransmits {
		t.Fatalf("retransmits did not climb: baseline %d, faulted %d", baseline.Retransmits, faulted.Retransmits)
	}
	if faulted.GoodputBps >= baseline.GoodputBps || faulted.GoodputBps <= 0 {
		t.Fatalf("faulted goodput %v not in (0, baseline %v)", faulted.GoodputBps, baseline.GoodputBps)
	}
	if faulted.Elapsed <= baseline.Elapsed {
		t.Fatalf("faulted run finished no later than baseline: %v vs %v", faulted.Elapsed, baseline.Elapsed)
	}
}

// TestFaultTraceRendering runs a faulted cluster and checks that the fault
// edges it records come back in deterministic (time, target, detail) order.
func TestFaultTraceRendering(t *testing.T) {
	cfg := smallMemcached()
	cfg.RequestsPerClient = 8
	cfg.MaxClients = 24
	cfg.Faults = fault.NewPlan(cfg.Seed).
		FlapRackUplink(1, sim.Time(10*sim.Millisecond), 5*sim.Millisecond)

	var cluster *Cluster
	cfg.OnCluster = func(c *Cluster) { cluster = c }
	if _, err := RunMemcached(cfg); err != nil {
		t.Fatal(err)
	}
	edges := cluster.FaultEdges()
	if len(edges) != 4 {
		t.Fatalf("recorded %d fault edges, want 4: %v", len(edges), edges)
	}
	if edges[0].At != sim.Time(10*sim.Millisecond) || !strings.Contains(edges[0].Detail, "apply") {
		t.Fatalf("first edge = %v", edges[0])
	}
	if edges[2].At != sim.Time(15*sim.Millisecond) || !strings.Contains(edges[2].Detail, "clear") {
		t.Fatalf("third edge = %v", edges[2])
	}
}
