package core

import (
	"testing"

	"diablo/internal/kernel"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// paperTopo returns the paper's 500-node-scale topology (1 array).
func paperTopo(arrays int) topology.Params {
	return topology.Params{ServersPerRack: 31, RacksPerArray: 16, Arrays: arrays}
}

func TestClusterWiring(t *testing.T) {
	c, err := New(DefaultConfig(paperTopo(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if len(c.Machines) != 992 || len(c.Tors) != 32 || len(c.Arrays) != 2 || c.DC == nil {
		t.Fatalf("shape: %d machines, %d tors, %d arrays, dc=%v",
			len(c.Machines), len(c.Tors), len(c.Arrays), c.DC != nil)
	}
}

func TestClusterSingleRackHasNoUplinks(t *testing.T) {
	c, err := New(DefaultConfig(topology.Params{ServersPerRack: 8, RacksPerArray: 1, Arrays: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if len(c.Arrays) != 0 || c.DC != nil {
		t.Fatal("single rack must not build aggregation switches")
	}
	if got := c.Tors[0].Params().Ports; got != 8 {
		t.Fatalf("ToR ports = %d, want 8", got)
	}
}

// TestCrossRackMessaging sends a UDP ping across every hop class and checks
// that latency grows with distance.
func TestCrossRackMessaging(t *testing.T) {
	cfg := DefaultConfig(topology.Params{ServersPerRack: 4, RacksPerArray: 2, Arrays: 2})
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// Server on node 0; clients in same rack (1), other rack same array
	// (4), other array (8).
	lat := map[packet.NodeID]sim.Duration{}
	c.Machines[0].Spawn("server", func(t *kernel.Thread) {
		sock, _ := t.UDPSocket(9000)
		for {
			from, _, _, err := sock.RecvFrom(t)
			if err != nil {
				return
			}
			_ = sock.SendTo(t, from, 100, packet.Msg{})
		}
	})
	for _, n := range []packet.NodeID{1, 4, 8} {
		n := n
		c.Machines[n].Spawn("client", func(t *kernel.Thread) {
			t.Sleep(sim.Duration(n) * sim.Millisecond) // avoid overlap
			sock, _ := t.UDPSocket(0)
			start := t.Now()
			_ = sock.SendTo(t, packet.Addr{Node: 0, Port: 9000}, 100, packet.Msg{})
			_, _, _, err := sock.RecvFrom(t)
			if err != nil {
				return
			}
			lat[n] = t.Now().Sub(start)
		})
	}
	c.RunUntil(sim.Second)
	if len(lat) != 3 {
		t.Fatalf("pings completed: %d/3 (%v)", len(lat), lat)
	}
	if !(lat[1] < lat[4] && lat[4] < lat[8]) {
		t.Fatalf("latency not ordered by hop count: local=%v 1hop=%v 2hop=%v", lat[1], lat[4], lat[8])
	}
	// Classification sanity.
	if c.Topo.Hops(0, 1) != topology.Local || c.Topo.Hops(0, 4) != topology.OneHop || c.Topo.Hops(0, 8) != topology.TwoHop {
		t.Fatal("hop classes wrong in test setup")
	}
}

func TestIncastBaselines(t *testing.T) {
	// One sender saturates the link (~930 Mbps).
	cfg := DefaultIncast(1)
	cfg.Iterations = 5
	res, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps < 850e6 || res.GoodputBps > 1000e6 {
		t.Fatalf("single-sender goodput = %v Mbps, want ~930", res.GoodputBps/1e6)
	}
	if res.Timeouts != 0 {
		t.Fatalf("single sender must not time out, got %d", res.Timeouts)
	}
}

func TestIncastCollapses(t *testing.T) {
	// Eight senders through the shallow-buffer VOQ switch must collapse
	// (<20% of link) with RTO stalls — the paper's headline reproduction.
	cfg := DefaultIncast(8)
	cfg.Iterations = 8
	res, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodputBps > 200e6 {
		t.Fatalf("8-sender goodput = %v Mbps: no collapse", res.GoodputBps/1e6)
	}
	if res.Timeouts == 0 {
		t.Fatal("collapse without RTO stalls is not incast")
	}
}

func TestIncastMinRTOMitigation(t *testing.T) {
	// Vasudevan et al.'s fix: microsecond-granularity RTO restores goodput.
	slow := DefaultIncast(8)
	slow.Iterations = 6
	fast := slow
	fast.MinRTO = 2 * sim.Millisecond
	rSlow, err := RunIncast(slow)
	if err != nil {
		t.Fatal(err)
	}
	rFast, err := RunIncast(fast)
	if err != nil {
		t.Fatal(err)
	}
	if rFast.GoodputBps < 4*rSlow.GoodputBps {
		t.Fatalf("small minRTO should restore goodput: 200ms=%v Mbps 2ms=%v Mbps",
			rSlow.GoodputBps/1e6, rFast.GoodputBps/1e6)
	}
}

func TestIncastDeterminism(t *testing.T) {
	cfg := DefaultIncast(4)
	cfg.Iterations = 4
	a, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.GoodputBps != b.GoodputBps || a.Elapsed != b.Elapsed || a.Timeouts != b.Timeouts {
		t.Fatalf("non-deterministic incast: %+v vs %+v", a, b)
	}
}

func TestEpollClientVariant(t *testing.T) {
	cfg := DefaultIncast(4)
	cfg.Iterations = 4
	cfg.Epoll = true
	res, err := RunIncast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes == 0 || res.Elapsed <= 0 {
		t.Fatalf("epoll client produced no result: %+v", res)
	}
}
