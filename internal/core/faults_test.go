package core

import (
	"strings"
	"testing"

	"diablo/internal/fault"
	"diablo/internal/sim"
)

// The graceful-degradation experiments must show measurable, attributable
// damage: the faulted run loses frames at the fault layer (not in switch
// buffers), retries/retransmits climb, and the latency tail inflates —
// while the baseline run stays byte-identical to a cluster with no fault
// layer at all.

func TestMemcachedToRFlapDegrades(t *testing.T) {
	cfg := DefaultMemcached()
	cfg.Arrays = 1
	cfg.MaxClients = 48
	cfg.RequestsPerClient = 20
	cfg.Warmup = 2
	// Rack 0's uplink drops half its frames for 150 ms from 25 ms.
	plan := fault.NewPlan(cfg.Seed).
		DegradeRackUplink(0, sim.Time(25*sim.Millisecond), 150*sim.Millisecond, 0.5, 0)

	r, err := RunMemcachedFaulted(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Degradation

	if r.Baseline.FaultDrops != 0 || len(r.Baseline.FaultEdges) != 0 {
		t.Fatalf("baseline run saw fault activity: drops=%d edges=%v", r.Baseline.FaultDrops, r.Baseline.FaultEdges)
	}
	if d.FaultDrops == 0 {
		t.Fatal("lossy uplink dropped no frames")
	}
	if d.FaultedRetried <= d.BaselineRetried {
		t.Fatalf("retries did not climb under loss: baseline %d, faulted %d", d.BaselineRetried, d.FaultedRetried)
	}
	// A retried UDP request costs at least one 250 ms timeout, so the tail
	// must inflate well past the healthy run's.
	if f, b := d.Faulted.Percentile(0.999), d.Baseline.Percentile(0.999); f <= b {
		t.Fatalf("p99.9 did not inflate: baseline %v, faulted %v", b, f)
	}
	if d.Faulted.Max() < 200*sim.Millisecond {
		t.Fatalf("faulted max latency %v shows no timeout-driven retry", d.Faulted.Max())
	}
	if got := len(r.Faulted.FaultEdges); got != 4 {
		t.Fatalf("recorded %d fault edges, want 4 (2 directions x apply/clear): %v", got, r.Faulted.FaultEdges)
	}
	// The rendered table is the experiment's human-readable deliverable.
	table := d.Table().String()
	for _, want := range []string{"p99.9", "fault drops", "retried"} {
		if !strings.Contains(table, want) {
			t.Fatalf("degradation table missing %q:\n%s", want, table)
		}
	}
}

func TestIncastLossyUplinkDegrades(t *testing.T) {
	cfg := DefaultIncast(6)
	cfg.Iterations = 8
	// The client's downlink (switch->node 0) drops 10% of frames all run long.
	plan := fault.NewPlan(cfg.Seed).DegradeEdge(0, fault.Down, 0, 600*sim.Second, 0.1, 0)

	r, err := RunIncastFaulted(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if r.Degradation.FaultDrops == 0 {
		t.Fatal("lossy downlink dropped no frames")
	}
	if r.Faulted.Retransmits <= r.Baseline.Retransmits {
		t.Fatalf("retransmits did not climb: baseline %d, faulted %d", r.Baseline.Retransmits, r.Faulted.Retransmits)
	}
	if ratio := r.GoodputRatio(); ratio >= 1 || ratio <= 0 {
		t.Fatalf("goodput ratio %v not in (0,1)", ratio)
	}
	if r.Faulted.Elapsed <= r.Baseline.Elapsed {
		t.Fatalf("faulted run finished no later than baseline: %v vs %v", r.Faulted.Elapsed, r.Baseline.Elapsed)
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
