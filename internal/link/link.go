// Package link models point-to-point Ethernet links: serialization at the
// link rate, propagation delay, and delivery to the receiving endpoint.
// A link is simplex; a cable is a pair of links. Buffering policy lives in
// the transmitting device (NIC or switch), not here — the link only enforces
// that bits are serialized one frame at a time.
package link

import (
	"fmt"

	"diablo/internal/metrics"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Endpoint consumes packets delivered by a link. Receive is invoked when the
// last bit of the frame arrives.
type Endpoint interface {
	Receive(pkt *packet.Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(*packet.Packet)

// Receive calls f(pkt).
func (f EndpointFunc) Receive(pkt *packet.Packet) { f(pkt) }

// Impairment is a fault-layer degradation applied to a link: a cable that is
// down drops every frame; a flaky one drops each frame with probability Loss
// and/or adds ExtraProp to the propagation delay. Impairments only remove or
// delay frames — they can never deliver a frame earlier than the healthy
// link would, which is what keeps a partitioned run's lookahead quantum
// (derived from the healthy propagation delays) valid under faults.
type Impairment struct {
	// Down drops every frame (cable cut / port down).
	Down bool
	// Loss is the per-frame drop probability in [0, 1].
	Loss float64
	// ExtraProp is added propagation delay (>= 0).
	ExtraProp sim.Duration
}

// Validate rejects impairments that could break causality or probability.
func (i Impairment) Validate() error {
	if i.Loss < 0 || i.Loss > 1 {
		return fmt.Errorf("link: loss probability %v outside [0,1]", i.Loss)
	}
	if i.ExtraProp < 0 {
		return fmt.Errorf("link: negative extra propagation %v (would violate lookahead)", i.ExtraProp)
	}
	return nil
}

// active reports whether the impairment affects traffic at all.
func (i Impairment) active() bool { return i.Down || i.Loss > 0 || i.ExtraProp > 0 }

// Link is a simplex link from a transmitter to an endpoint.
type Link struct {
	sched   *sim.Engine   // the transmit side's partition queue
	deliver sim.Scheduler // scheduler for the delivery event; defaults to sched
	dst     Endpoint
	rate    int64        // bits per second
	prop    sim.Duration // propagation delay

	nextFree sim.Time // when the transmit side is next idle

	imp       Impairment
	faultRand *sim.Rand // loss decisions; set once by the fault layer
	pool      *packet.Pool

	// OnFaultDrop, if set, observes every frame removed by the fault layer.
	OnFaultDrop func(pkt *packet.Packet)

	// Stats counts frames and bytes clocked onto the wire (the transmit side
	// cannot tell a dead cable from a live one, so impaired frames still
	// count here). FaultDrops counts the subset removed by the fault layer.
	Stats      metrics.Counter
	FaultDrops metrics.Counter
}

// New creates a link delivering to dst at the given rate (bits per second)
// with the given propagation delay. sched is the transmit side's engine; the
// delivery event goes there too unless SetDeliverySched reroutes it.
func New(sched *sim.Engine, dst Endpoint, bitsPerSecond int64, prop sim.Duration) *Link {
	if bitsPerSecond <= 0 {
		panic("link: non-positive rate")
	}
	return &Link{sched: sched, deliver: sched, dst: dst, rate: bitsPerSecond, prop: prop}
}

// SetDeliverySched reroutes the delivery event onto s. A link whose endpoints
// live in different partitions of a parallel run keeps transmit-side
// bookkeeping on its local scheduler but must hand the arrival to the remote
// partition (via a ParallelEngine Cross scheduler).
func (l *Link) SetDeliverySched(s sim.Scheduler) { l.deliver = s }

// SetDst rebinds the receiving endpoint (used while wiring topologies).
func (l *Link) SetDst(dst Endpoint) { l.dst = dst }

// SetPool attaches the transmit-side partition's packet pool. A fault drop
// makes the link the frame's final consumer, so the slot is returned here; a
// nil pool leaves the link in unpooled heap mode.
func (l *Link) SetPool(p *packet.Pool) { l.pool = p }

// SetFaultRand installs the deterministic stream that decides probabilistic
// losses. The fault layer seeds one stream per link (derived from the plan
// seed and a stable link label) at install time, before the run starts; the
// stream is consumed only while a lossy impairment is active, so fault-free
// runs draw nothing and replay byte-identically with or without the stream.
func (l *Link) SetFaultRand(r *sim.Rand) { l.faultRand = r }

// SetImpairment applies imp (panics on invalid values; the fault layer
// validates plans before scheduling). A lossy impairment requires a fault
// stream via SetFaultRand.
func (l *Link) SetImpairment(imp Impairment) {
	if err := imp.Validate(); err != nil {
		panic(err)
	}
	if imp.Loss > 0 && l.faultRand == nil {
		panic("link: lossy impairment without a fault stream (SetFaultRand)")
	}
	l.imp = imp
}

// ClearImpairment restores the healthy link.
func (l *Link) ClearImpairment() { l.imp = Impairment{} }

// Impaired reports whether a fault-layer impairment is active.
func (l *Link) Impaired() bool { return l.imp.active() }

// SerializationTime returns the time to clock pkt onto the wire.
func (l *Link) SerializationTime(pkt *packet.Packet) sim.Duration {
	return sim.TransmitTime(pkt.WireBytes(), l.rate)
}

// Busy reports whether the transmitter is mid-frame at time now.
func (l *Link) Busy(now sim.Time) bool { return now < l.nextFree }

// FreeAt returns when the transmitter becomes idle.
func (l *Link) FreeAt() sim.Time { return l.nextFree }

// Send begins serializing pkt at now (or when the current frame finishes,
// whichever is later) and schedules delivery at the receiver. It returns the
// time the transmit side becomes free — well-paced devices use it to
// schedule their next dequeue. Pacing is the caller's job; the link
// tolerates back-to-back sends by queueing in time.
func (l *Link) Send(pkt *packet.Packet) (txDone sim.Time) {
	return l.SendFrom(l.sched.Now(), pkt)
}

// SendFrom is Send with an explicit earliest transmission-start time, which
// may lie in the past relative to the engine clock. Cut-through switches use
// this: they learn of a frame when its last bit arrives, but the egress
// transmission logically began when the header crossed the fabric. Backdated
// starts are causally safe as long as the egress rate does not exceed the
// ingress rate (the switch checks this); the delivery event itself is
// clamped to never fire before now.
func (l *Link) SendFrom(earliest sim.Time, pkt *packet.Packet) (txDone sim.Time) {
	start := earliest
	if l.nextFree > start {
		start = l.nextFree
	}
	ser := l.SerializationTime(pkt)
	txDone = start.Add(ser)
	l.nextFree = txDone
	l.Stats.Add(pkt.WireBytes())

	prop := l.prop
	if l.imp.active() {
		if l.imp.Down || (l.imp.Loss > 0 && l.faultRand.Float64() < l.imp.Loss) {
			l.FaultDrops.Add(pkt.WireBytes())
			if l.OnFaultDrop != nil {
				l.OnFaultDrop(pkt)
			}
			// The wire ate the frame: release at the drop site (after the
			// observability hook has seen it). The transmitting NIC's ring
			// still points at the frame until txDone, but never dereferences
			// it, and its ReleaseInFlight skips the in-flight head.
			l.pool.Release(pkt)
			return txDone
		}
		prop += l.imp.ExtraProp
	}

	pkt.FirstBitArrival = start.Add(prop)
	deliver := txDone.Add(prop)
	now := l.sched.Now()
	if deliver < now {
		deliver = now
	}
	// Typed-event lane (zero-allocation): the EvPacketHop handler reads
	// l.dst at fire time. dst is set at wiring and immutable during a run,
	// so this matches the old capture-at-send closure exactly.
	l.deliver.AtEvent(deliver, sim.Event{Kind: sim.EvPacketHop, Tgt: l, Ref: pkt})
	return txDone
}

// RegisterEventHandlers installs this package's typed-event handlers on r.
// core.New registers every model package at wiring time; tests that drive an
// engine directly must call this before traffic flows.
func RegisterEventHandlers(r sim.HandlerRegistrar) {
	r.RegisterHandler(sim.EvPacketHop, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Link).dst.Receive(ev.Ref.(*packet.Packet))
	})
}

// Utilization returns the fraction of the elapsed time spent transmitting.
func (l *Link) Utilization(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return l.Stats.Throughput(elapsed) / float64(l.rate)
}
