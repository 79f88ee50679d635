package nic

import (
	"testing"

	"diablo/internal/link"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

const gbps = int64(1_000_000_000)

func mkpkt(payload int) *packet.Packet {
	return &packet.Packet{Proto: packet.ProtoUDP, PayloadBytes: payload}
}

func newNIC(t *testing.T, params Params, sink link.Endpoint) (*sim.Engine, *NIC) {
	t.Helper()
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	wire := link.New(eng, sink, gbps, 100*sim.Nanosecond)
	n, err := New(eng, params, wire)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestTransmitOrderAndPacing(t *testing.T) {
	var got []sim.Time
	sink := link.EndpointFunc(func(p *packet.Packet) {})
	eng, n := newNIC(t, Defaults(), sink)
	wire := n.Wire()
	_ = wire
	sinkTimes := link.EndpointFunc(func(p *packet.Packet) { got = append(got, eng.Now()) })
	n.wire.SetDst(sinkTimes)

	eng.At(0, func() {
		for i := 0; i < 3; i++ {
			if !n.Transmit(mkpkt(1472)) {
				t.Error("ring should have space")
			}
		}
	})
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d/3", len(got))
	}
	ser := sim.TransmitTime(1538, gbps)
	for i, tm := range got {
		want := sim.Time(ser)*sim.Time(i+1) + sim.Time(100*sim.Nanosecond)
		if tm != want {
			t.Fatalf("packet %d at %v, want %v", i, tm, want)
		}
	}
	if n.Stats.TxPackets != 3 {
		t.Fatalf("tx count = %d", n.Stats.TxPackets)
	}
}

func TestTxRingFull(t *testing.T) {
	params := Defaults()
	params.TxRing = 2
	eng, n := newNIC(t, params, link.EndpointFunc(func(*packet.Packet) {}))
	drains := 0
	n.OnTxDrain = func() { drains++ }
	eng.At(0, func() {
		if !n.Transmit(mkpkt(100)) || !n.Transmit(mkpkt(100)) {
			t.Error("first two must fit")
		}
		if n.Transmit(mkpkt(100)) {
			t.Error("third must be rejected")
		}
		if n.TxSpace() != 0 {
			t.Errorf("TxSpace = %d", n.TxSpace())
		}
	})
	eng.Run()
	if drains != 2 {
		t.Fatalf("drain callbacks = %d, want 2", drains)
	}
}

func TestRxInterruptImmediateWhenIdle(t *testing.T) {
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	wire := link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), gbps, 0)
	n, err := New(eng, Defaults(), wire)
	if err != nil {
		t.Fatal(err)
	}
	var irqAt sim.Time = -1
	n.OnRxInterrupt = func() { irqAt = eng.Now() }
	eng.At(sim.Time(sim.Millisecond), func() { n.Receive(mkpkt(100)) })
	eng.Run()
	if irqAt != sim.Time(sim.Millisecond) {
		t.Fatalf("first interrupt at %v, want immediate (1ms)", irqAt)
	}
}

func TestRxInterruptMitigation(t *testing.T) {
	params := Defaults()
	params.RxITR = 100 * sim.Microsecond
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	wire := link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), gbps, 0)
	n, _ := New(eng, params, wire)
	var irqs []sim.Time
	n.OnRxInterrupt = func() {
		irqs = append(irqs, eng.Now())
		// Driver drains the ring on each interrupt.
		for n.PopRx() != nil {
		}
	}
	// Packets every 10 us for 1 ms: without mitigation 100 interrupts;
	// with a 100 us ITR we expect ~11.
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Time(10*sim.Microsecond)
		eng.At(at, func() { n.Receive(mkpkt(100)) })
	}
	eng.Run()
	if len(irqs) < 9 || len(irqs) > 12 {
		t.Fatalf("interrupts = %d, want ~10-11 with 100us ITR", len(irqs))
	}
	for i := 1; i < len(irqs); i++ {
		if d := irqs[i].Sub(irqs[i-1]); d < 100*sim.Microsecond {
			t.Fatalf("interrupts %v apart, ITR is 100us", d)
		}
	}
	if n.Stats.RxIRQs != uint64(len(irqs)) {
		t.Fatalf("irq stat = %d, want %d", n.Stats.RxIRQs, len(irqs))
	}
}

func TestRxOverrun(t *testing.T) {
	params := Defaults()
	params.RxRing = 4
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	wire := link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), gbps, 0)
	n, _ := New(eng, params, wire)
	// No driver attached: ring fills and overflows.
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			n.Receive(mkpkt(100))
		}
	})
	eng.Run()
	if n.Stats.RxOverruns != 6 {
		t.Fatalf("overruns = %d, want 6", n.Stats.RxOverruns)
	}
	if n.RxPending() != 4 {
		t.Fatalf("pending = %d, want 4", n.RxPending())
	}
}

func TestNAPIDisableEnable(t *testing.T) {
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	wire := link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), gbps, 0)
	n, _ := New(eng, Params{TxRing: 8, RxRing: 8, RxITR: 0}, wire)
	irqs := 0
	n.OnRxInterrupt = func() {
		irqs++
		n.SetRxIntEnabled(false) // NAPI: mask and poll
	}
	eng.At(0, func() { n.Receive(mkpkt(1)) })
	eng.At(sim.Time(sim.Microsecond), func() { n.Receive(mkpkt(1)) }) // masked: no irq
	eng.At(sim.Time(2*sim.Microsecond), func() {
		// Poll loop drains, then re-enables; ring is empty so no new irq.
		for n.PopRx() != nil {
		}
		n.SetRxIntEnabled(true)
	})
	eng.At(sim.Time(3*sim.Microsecond), func() { n.Receive(mkpkt(1)) }) // new irq
	eng.Run()
	if irqs != 2 {
		t.Fatalf("irqs = %d, want 2 (masked window suppressed one)", irqs)
	}
}

func TestReenableWithPendingRaisesIRQ(t *testing.T) {
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	wire := link.New(eng, link.EndpointFunc(func(*packet.Packet) {}), gbps, 0)
	n, _ := New(eng, Params{TxRing: 8, RxRing: 8, RxITR: 0}, wire)
	irqs := 0
	n.OnRxInterrupt = func() { irqs++ }
	eng.At(0, func() {
		n.SetRxIntEnabled(false)
		n.Receive(mkpkt(1))
		if irqs != 0 {
			t.Error("irq while masked")
		}
		n.SetRxIntEnabled(true) // pending frame must trigger
	})
	eng.Run()
	if irqs != 1 {
		t.Fatalf("irqs = %d, want 1 after re-enable with pending frame", irqs)
	}
}

func TestValidateParams(t *testing.T) {
	bad := []Params{{TxRing: 0, RxRing: 1}, {TxRing: 1, RxRing: 0}, {TxRing: 1, RxRing: 1, RxITR: -1}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("%+v should not validate", p)
		}
	}
	if err := Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRingsNeverDrainedAllocateNothing keeps both descriptor rings between 3
// and 4 frames for 10,000 push/pop cycles (a stalled TX DMA and RX with
// interrupts off, so no event runs): they never drain, yet once warm they
// reuse their arrays and retire frames in arrival order.
func TestRingsNeverDrainedAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, n := newNIC(t, Defaults(), link.EndpointFunc(func(*packet.Packet) {}))
	n.SetStalled(true)
	n.SetRxIntEnabled(false)
	pkts := make([]*packet.Packet, 5)
	for i := range pkts {
		pkts[i] = mkpkt(100)
	}
	next, want := 0, 0
	for ; next < 3; next++ {
		n.Transmit(pkts[next%5])
		n.Receive(pkts[next%5])
	}
	cycles := func() {
		for range 10_000 {
			if !n.Transmit(pkts[next%5]) {
				t.Fatal("TX ring full")
			}
			n.Receive(pkts[next%5])
			next++
			if *n.txq.Head() != pkts[want%5] {
				t.Fatal("TX ring out of order")
			}
			n.txDone()
			if n.PopRx() != pkts[want%5] {
				t.Fatal("RX ring out of order")
			}
			want++
		}
	}
	if a := testing.AllocsPerRun(1, cycles); a != 0 {
		t.Fatalf("10,000 push/pop cycles allocated %v objects, want 0", a)
	}
	if n.Stats.RxOverruns != 0 {
		t.Fatalf("%d RX overruns", n.Stats.RxOverruns)
	}
}
