package vswitch

import (
	"testing"

	"diablo/internal/link"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// These tests pin down the dynamic-threshold shared-pool semantics of the
// VOQ architecture (the Broadcom containment scheme of paper ref [42]).

// blastRig floods from several inputs to chosen outputs with per-packet
// control, without host pacing (links are driven directly).
func TestDTVictimContainment(t *testing.T) {
	// One hot output plus one light flow: the hot aggregate must be capped
	// near half the pool (alpha=1) while the light flow never drops.
	params := Gigabit1GShallow("tor", 8) // pool = 8 x 4KB = 32KB
	r := newRig(t, params)
	// Saturate output 7 from five inputs.
	for i := 0; i < 40; i++ {
		for src := 0; src < 5; src++ {
			r.sendAt(0, src, 7, 1472)
		}
	}
	// A light flow input 5 -> output 6, spread over time.
	for i := 0; i < 20; i++ {
		r.sendAt(sim.Time(i)*sim.Time(100*sim.Microsecond), 5, 6, 1000)
	}
	r.eng.Run()
	_, hotDrops := r.sw.PortStats(7)
	_, lightDrops := r.sw.PortStats(6)
	if hotDrops == 0 {
		t.Fatal("hot output should drop under 5:1 overload")
	}
	if lightDrops != 0 {
		t.Fatalf("light flow dropped %d packets despite DT containment", lightDrops)
	}
	if len(r.recvd[6]) != 20 {
		t.Fatalf("light flow delivered %d/20", len(r.recvd[6]))
	}
	// Peak occupancy bounded by the pool.
	if pool := r.sw.Params().SharedBuffer; r.sw.Stats.PeakOccupied > pool {
		t.Fatalf("peak %d exceeds pool %d", r.sw.Stats.PeakOccupied, pool)
	}
}

func TestDTAlphaControlsAggressiveness(t *testing.T) {
	// Smaller alpha = tighter per-output cap = more drops for the same
	// burst.
	drops := func(alpha float64) uint64 {
		params := Gigabit1GShallow("tor", 8)
		params.Alpha = alpha
		r := newRig(t, params)
		for i := 0; i < 20; i++ {
			for src := 0; src < 6; src++ {
				r.sendAt(0, src, 7, 1472)
			}
		}
		r.eng.Run()
		return r.sw.Stats.Dropped.Packets
	}
	tight := drops(0.25)
	loose := drops(4)
	if tight <= loose {
		t.Fatalf("alpha=0.25 drops (%d) should exceed alpha=4 (%d)", tight, loose)
	}
}

func TestDTPoolConservation(t *testing.T) {
	// Occupancy returns to zero and deliveries+drops == sends for a random
	// mixed load.
	params := Gigabit1GShallow("tor", 6)
	r := newRig(t, params)
	rng := sim.NewRand(3)
	const total = 400
	for i := 0; i < total; i++ {
		src := rng.Intn(5)
		dst := 5 // all to one port: force contention
		if rng.Intn(4) == 0 {
			dst = rng.Intn(5) // some background
		}
		r.sendAt(sim.Time(rng.Intn(3000))*sim.Time(sim.Microsecond), src, dst, 100+rng.Intn(1300))
	}
	r.eng.Run()
	delivered := 0
	for p := range r.recvd {
		delivered += len(r.recvd[p])
	}
	drops := int(r.sw.Stats.Dropped.Packets)
	if delivered+drops != total {
		t.Fatalf("conservation: %d delivered + %d dropped != %d", delivered, drops, total)
	}
	if r.sw.Occupied() != 0 {
		t.Fatalf("pool not drained: %d", r.sw.Occupied())
	}
}

// TestDropsByInput: a tail drop is charged to the input the frame arrived
// on, and the per-input counts sum to the switch's drop total.
func TestDropsByInput(t *testing.T) {
	params := Gigabit1GShallow("tor", 4)
	params.SharedBuffer = 4096 // tiny pool
	r := newRig(t, params)
	for i := 0; i < 12; i++ {
		r.sendAt(0, 0, 3, 1472)
		r.sendAt(0, 1, 3, 1472)
	}
	r.eng.Run()
	by := r.sw.Stats.DropsByInput
	if r.sw.Stats.Dropped.Packets == 0 {
		t.Fatal("no frame dropped")
	}
	if by[2] != 0 || by[3] != 0 {
		t.Fatalf("drops charged to idle inputs: %v", by)
	}
	if sum := by[0] + by[1]; sum != r.sw.Stats.Dropped.Packets {
		t.Fatalf("DropsByInput sums to %d, want %d", sum, r.sw.Stats.Dropped.Packets)
	}
}

func TestMixedRateUplink(t *testing.T) {
	// A 1G switch with a 10G uplink on port 3: cut-through must fall back
	// to store-and-forward for 1G->10G (underrun), and traffic still flows.
	params := Gigabit1GShallow("tor", 4)
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	sw, err := New(eng, params)
	if err != nil {
		t.Fatal(err)
	}
	var got []sim.Time
	hosts := make([]*link.Link, 4)
	for i := 0; i < 3; i++ {
		hosts[i] = link.New(eng, sw.Input(i), params.LinkRate, 100*sim.Nanosecond)
		sw.AttachOutput(i, link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), params.LinkRate, 100*sim.Nanosecond))
	}
	// Port 3: 10G uplink.
	sw.AttachOutput(3, link.New(eng, link.EndpointFunc(func(p *packet.Packet) {
		got = append(got, eng.Now())
	}), 10_000_000_000, 100*sim.Nanosecond))

	eng.At(0, func() {
		for i := 0; i < 5; i++ {
			p := &packet.Packet{Proto: packet.ProtoUDP, PayloadBytes: 1400, Route: packet.MakeRoute(3)}
			hosts[0].Send(p)
		}
	})
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d/5 over the fast uplink", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("deliveries not strictly ordered")
		}
	}
}
