package vswitch

import (
	"testing"

	"diablo/internal/link"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// TestSwitchForwardAllocatesNothing forwards warm pooled frames through a
// 2-port switch, both ways at once, into sinks that release them. Bursts
// queue at the egress, so the forward path runs through both of its typed
// events (transmit done, and the wake for a head not yet eligible); once the
// queues, the event slots and the pool have reached their working size, a
// burst allocates nothing. A closure scheduled anywhere on that path would.
func TestSwitchForwardAllocatesNothing(t *testing.T) {
	if instrumented {
		t.Skip("-race and slabdebug builds allocate on their own")
	}
	const burst = 8
	params := Gigabit1GShallow("tor", 2)
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	sw, err := New(eng, params)
	if err != nil {
		t.Fatal(err)
	}
	pool := packet.NewPool()
	sw.SetPool(pool)
	delivered := 0
	sink := link.EndpointFunc(func(p *packet.Packet) {
		delivered++
		pool.Release(p)
	})
	hosts := make([]*link.Link, params.Ports)
	for i := range hosts {
		hosts[i] = link.New(eng, sw.Input(i), params.LinkRate, 100*sim.Nanosecond)
		hosts[i].SetPool(pool)
		out := link.New(eng, sink, params.LinkRate, 100*sim.Nanosecond)
		out.SetPool(pool)
		sw.AttachOutput(i, out)
	}

	forward := func() {
		for range burst {
			for src := range hosts {
				p := pool.Get()
				p.Src = packet.Addr{Node: packet.NodeID(src)}
				p.Dst = packet.Addr{Node: packet.NodeID(1 - src)}
				p.Proto = packet.ProtoUDP
				p.PayloadBytes = 1000
				p.Route = packet.MakeRoute(uint8(1 - src))
				hosts[src].Send(p)
			}
		}
		eng.Run()
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, forward)
	if want := (runs + 1) * burst * len(hosts); delivered != want {
		t.Fatalf("delivered %d frames, want %d (drops %d)", delivered, want, sw.Stats.Dropped.Packets)
	}
	if allocs != 0 {
		t.Errorf("forwarding a %d-frame burst each way allocated %v objects, want none", burst, allocs)
	}
	if st := pool.Stats(); st.Live() != 0 {
		t.Errorf("pool ledger: %d gets, %d releases", st.Gets, st.Releases)
	}
}
