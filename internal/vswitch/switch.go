package vswitch

import (
	"fmt"
	"math/bits"

	"diablo/internal/link"
	"diablo/internal/metrics"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Stats aggregates switch-level counters.
type Stats struct {
	Forwarded    metrics.Counter
	Dropped      metrics.Counter
	RouteErrors  uint64
	PeakOccupied int // peak buffered bytes (whole switch)
	// DropsByInput attributes drops to the ingress port whose buffer (or
	// pool admission) rejected the frame.
	DropsByInput []uint64
	// FaultDrops counts frames blackholed by the fault layer (failed switch
	// or an impaired ingress port); Corrupted counts the subset removed as
	// corrupted (FCS failure at the next hop). Both are disjoint from
	// Dropped, which stays a pure buffer-overrun signal.
	FaultDrops metrics.Counter
	Corrupted  uint64
}

// qpkt is a buffered packet with its forwarding-eligibility time.
type qpkt struct {
	pkt      *packet.Packet
	eligible sim.Time
	bytes    int
	input    int
}

// outPort is the egress side of one switch port.
type outPort struct {
	idx      int // port index, the Obj payload of this port's typed events
	link     *link.Link
	occupied int // per-output buffer occupancy (ArchDropTail)
	// voq[i] is the virtual output queue from input i (ArchVOQ) and bit i of
	// backlog is set exactly while voq[i] is non-empty; fifo is the single
	// output queue (ArchSharedOutput / ArchDropTail). Both reuse their
	// arrays, so steady-state forwarding allocates nothing.
	voq     []sim.FIFO[qpkt]
	backlog []uint64
	fifo    sim.FIFO[qpkt]
	queued  int // packets waiting on this output
	rr      int // round-robin pointer over inputs
	busy    bool
	wakeAt  sim.Time

	Tx    metrics.Counter
	Drops uint64
}

// Switch is a configurable multi-port switch model. It is not safe for
// concurrent use; all calls must come from its engine's event context.
type Switch struct {
	sched  *sim.Engine // the partition's event queue, bound at wiring
	params Params

	in       []inPort
	out      []*outPort
	occupied int // total buffered bytes
	pool     *packet.Pool

	failed    bool
	portImp   []PortImpairment // per ingress port; allocated on first use
	faultRand *sim.Rand        // drop/corrupt decisions; set by the fault layer

	// OnFaultDrop, if set, observes every frame the fault layer removed.
	OnFaultDrop func(in int, pkt *packet.Packet)

	Stats Stats
}

// PortImpairment degrades one ingress port: each arriving frame is dropped
// with probability Drop, and otherwise discarded as corrupted with
// probability Corrupt (modeling the FCS check that would reject it at the
// next hop). Zero value = healthy port.
type PortImpairment struct {
	Drop    float64
	Corrupt float64
}

// Validate rejects probabilities outside [0,1].
func (p PortImpairment) Validate() error {
	if p.Drop < 0 || p.Drop > 1 || p.Corrupt < 0 || p.Corrupt > 1 {
		return fmt.Errorf("vswitch: port impairment probabilities %+v outside [0,1]", p)
	}
	return nil
}

func (p PortImpairment) active() bool { return p.Drop > 0 || p.Corrupt > 0 }

// inPort tracks per-input buffer occupancy (ArchVOQ accounting).
type inPort struct {
	sw       *Switch
	index    int
	occupied int
}

// Receive implements link.Endpoint for a specific input port.
func (ip *inPort) Receive(pkt *packet.Packet) { ip.sw.receive(ip.index, pkt) }

// New builds a switch from params. Egress links must be attached with
// AttachOutput before traffic flows.
func New(sched *sim.Engine, params Params) (*Switch, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	sw := &Switch{sched: sched, params: params}
	sw.Stats.DropsByInput = make([]uint64, params.Ports)
	sw.in = make([]inPort, params.Ports)
	sw.out = make([]*outPort, params.Ports)
	for i := range sw.in {
		sw.in[i] = inPort{sw: sw, index: i}
	}
	words := (params.Ports + 63) / 64
	bitmaps := make([]uint64, params.Ports*words) // one allocation for every port's backlog
	for i := range sw.out {
		op := &outPort{idx: i, wakeAt: sim.Never}
		if params.Arch == ArchVOQ {
			op.voq = make([]sim.FIFO[qpkt], params.Ports)
			op.backlog = bitmaps[i*words : (i+1)*words : (i+1)*words]
		}
		sw.out[i] = op
	}
	return sw, nil
}

// Params returns the switch configuration.
func (s *Switch) Params() Params { return s.params }

// Input returns the endpoint for ingress port i; the upstream link's
// destination should be set to it.
func (s *Switch) Input(i int) link.Endpoint { return &s.in[i] }

// AttachOutput connects egress port i to l. The link's rate should normally
// equal params.LinkRate, but mixed-rate wiring (e.g. 10G uplinks on a 1G
// switch) is allowed.
func (s *Switch) AttachOutput(i int, l *link.Link) {
	s.out[i].link = l
}

// OutputLink returns the link attached to egress port i (nil if none).
func (s *Switch) OutputLink(i int) *link.Link { return s.out[i].link }

// PortStats returns the egress counters and drop count for port i.
func (s *Switch) PortStats(i int) (tx metrics.Counter, drops uint64) {
	return s.out[i].Tx, s.out[i].Drops
}

// SetPool attaches the partition's packet pool. Every path on which the
// switch is a frame's final consumer — buffer drop, fault drop, route error —
// returns the slot here; a nil pool leaves the switch in unpooled heap mode.
func (s *Switch) SetPool(p *packet.Pool) { s.pool = p }

// SetFaultRand installs the deterministic stream for probabilistic port
// impairments. Seeded once by the fault layer before the run; consumed only
// while an impairment is active.
func (s *Switch) SetFaultRand(r *sim.Rand) { s.faultRand = r }

// SetFailed fail-stops (or recovers) the whole switch. A failed switch
// blackholes every arriving frame; frames already buffered drain normally
// (the model is an ingress blackhole, not a power loss).
func (s *Switch) SetFailed(failed bool) { s.failed = failed }

// Failed reports whether the switch is currently failed.
func (s *Switch) Failed() bool { return s.failed }

// SetPortImpairment degrades ingress port i (panics on invalid values; the
// fault layer validates plans first). A probabilistic impairment requires a
// fault stream via SetFaultRand.
func (s *Switch) SetPortImpairment(i int, imp PortImpairment) {
	if err := imp.Validate(); err != nil {
		panic(err)
	}
	if imp.active() && s.faultRand == nil {
		panic("vswitch: probabilistic port impairment without a fault stream (SetFaultRand)")
	}
	if s.portImp == nil {
		if !imp.active() {
			return
		}
		s.portImp = make([]PortImpairment, s.params.Ports)
	}
	s.portImp[i] = imp
}

// faultDrop removes a frame at the fault layer (failed switch or impaired
// port), keeping it out of the buffer-drop accounting.
func (s *Switch) faultDrop(in int, pkt *packet.Packet, corrupted bool) {
	s.Stats.FaultDrops.Add(pkt.BufferBytes())
	if corrupted {
		s.Stats.Corrupted++
	}
	if s.OnFaultDrop != nil {
		s.OnFaultDrop(in, pkt)
	}
	// The fault layer is the frame's final consumer; release after the
	// observability hook has seen it.
	s.pool.Release(pkt)
}

// receive handles a frame arriving on input port in.
func (s *Switch) receive(in int, pkt *packet.Packet) {
	if s.failed {
		s.faultDrop(in, pkt, false)
		return
	}
	if s.portImp != nil {
		if imp := s.portImp[in]; imp.active() {
			if imp.Drop > 0 && s.faultRand.Float64() < imp.Drop {
				s.faultDrop(in, pkt, false)
				return
			}
			if imp.Corrupt > 0 && s.faultRand.Float64() < imp.Corrupt {
				s.faultDrop(in, pkt, true)
				return
			}
		}
	}
	outIdx := pkt.NextRoutePort()
	if outIdx < 0 || outIdx >= len(s.out) || s.out[outIdx].link == nil {
		s.Stats.RouteErrors++
		s.pool.Release(pkt)
		return
	}
	op := s.out[outIdx]
	size := pkt.BufferBytes()

	// Admission control: tail drop against the architecture's buffer model.
	switch s.params.Arch {
	case ArchVOQ:
		// Shared pool with dynamic per-output thresholding (the Broadcom
		// "flexible buffer allocation entities for traffic aggregate
		// containment" scheme the paper configures its Nexus 5000-style
		// model from): an output aggregate may occupy at most
		// Alpha * (pool - occupied), so an incast victim port is contained
		// while light traffic never sees drops.
		free := s.params.SharedBuffer - s.occupied
		if size > free || float64(op.occupied+size) > s.params.Alpha*float64(free) {
			s.drop(op, in, pkt)
			return
		}
		op.occupied += size
	case ArchSharedOutput:
		if s.occupied+size > s.params.SharedBuffer {
			s.drop(op, in, pkt)
			return
		}
	case ArchDropTail:
		if op.occupied+size > s.params.BufferPerPort {
			s.drop(op, in, pkt)
			return
		}
		op.occupied += size
	}
	s.occupied += size
	if s.occupied > s.Stats.PeakOccupied {
		s.Stats.PeakOccupied = s.occupied
	}

	now := s.sched.Now()
	lat := s.params.PortLatency + s.params.ExtraLatency
	eligible := now.Add(lat) // store-and-forward: wait for the full frame
	if s.params.CutThrough {
		// Cut-through: egress may logically begin once the header has
		// crossed the fabric — possibly before the last bit has arrived
		// (the egress transmission is then backdated via link.SendFrom).
		// If the egress link is faster than the ingress serialization the
		// bits would underrun, so fall back to store-and-forward for that
		// packet, as real cut-through switches do.
		ingressSer := now.Sub(pkt.FirstBitArrival)
		egressSer := op.link.SerializationTime(pkt)
		if egressSer >= ingressSer {
			eligible = pkt.FirstBitArrival.Add(lat)
		}
	}

	q := qpkt{pkt: pkt, eligible: eligible, bytes: size, input: in}
	if s.params.Arch == ArchVOQ {
		op.voq[in].Push(q)
		op.backlog[in>>6] |= 1 << uint(in&63)
	} else {
		op.fifo.Push(q)
	}
	op.queued++
	s.dispatch(op)
}

func (s *Switch) drop(op *outPort, in int, pkt *packet.Packet) {
	op.Drops++
	s.Stats.DropsByInput[in]++
	s.Stats.Dropped.Add(pkt.BufferBytes())
	// Tail drop makes the switch the frame's final consumer.
	s.pool.Release(pkt)
}

// arbitrate is the round-robin scheduler over inputs with eligible heads
// (paper: "unified abstract virtual output-queue switch model with a simple
// round-robin scheduler"): it returns the first input at or after the
// round-robin pointer whose head is eligible, or -1 and the time the earliest
// head it passed matures. Only backlogged inputs are visited: the bitmap is
// walked from the pointer's word (high bits), through the other words in ring
// order, back to that word's low bits.
func (op *outPort) arbitrate(now sim.Time) (int, sim.Time) {
	next := sim.Never
	words, w := len(op.backlog), op.rr>>6
	low := uint64(1)<<uint(op.rr&63) - 1
	word := op.backlog[w] &^ low
	for k := 1; ; k++ {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			if e := op.voq[i].Head().eligible; e <= now {
				return i, next
			} else if e < next {
				next = e
			}
		}
		if k > words {
			return -1, next
		}
		if w++; w == words {
			w = 0
		}
		if word = op.backlog[w]; k == words {
			word &= low
		}
	}
}

// dispatch starts transmission on op if it is idle and a packet is eligible.
func (s *Switch) dispatch(op *outPort) {
	if op.busy || op.queued == 0 {
		return
	}
	now := s.sched.Now()
	var chosen qpkt
	have := false
	var nextEligible = sim.Never

	if s.params.Arch == ArchVOQ {
		var i int
		if i, nextEligible = op.arbitrate(now); i >= 0 {
			r := &op.voq[i]
			chosen, have = r.Pop(), true
			if r.Len() == 0 {
				op.backlog[i>>6] &^= 1 << uint(i&63)
			}
			op.rr = (i + 1) % len(op.voq)
		}
	} else {
		if op.fifo.Len() > 0 {
			if h := op.fifo.Head(); h.eligible <= now {
				chosen = op.fifo.Pop()
				have = true
			} else {
				nextEligible = h.eligible
			}
		}
	}

	if !have {
		// Nothing eligible yet; wake when the earliest head matures. Typed
		// event: Arg carries the eligibility time this wake was armed for,
		// so a superseded wake (an earlier head arrived meanwhile) can tell
		// it no longer owns op.wakeAt.
		if nextEligible < op.wakeAt {
			op.wakeAt = nextEligible
			s.sched.AtEvent(nextEligible, sim.Event{
				Kind: sim.EvSwitchWake, Tgt: s, Obj: uint32(op.idx), Arg: uint64(nextEligible),
			})
		}
		return
	}

	op.queued--
	s.occupied -= chosen.bytes
	switch s.params.Arch {
	case ArchVOQ, ArchDropTail:
		op.occupied -= chosen.bytes
	}
	op.busy = true
	op.Tx.Add(chosen.pkt.WireBytes())
	s.Stats.Forwarded.Add(chosen.pkt.BufferBytes())
	// Start the egress no earlier than the packet's eligibility time; for a
	// cut-through packet this may be in the (recent) past, which SendFrom
	// handles by backdating the serialization window.
	txDone := op.link.SendFrom(chosen.eligible, chosen.pkt)
	wake := txDone
	if wake < now {
		wake = now
	}
	s.sched.AtEvent(wake, sim.Event{Kind: sim.EvSwitchTxDone, Tgt: s, Obj: uint32(op.idx)})
}

// RegisterEventHandlers installs this package's typed-event handlers on r
// (cascading to the link package's, which switch egress depends on).
// core.New registers every model package at wiring time; tests that drive an
// engine directly must call this before traffic flows.
func RegisterEventHandlers(r sim.HandlerRegistrar) {
	link.RegisterEventHandlers(r)
	r.RegisterHandler(sim.EvSwitchTxDone, func(_ sim.Time, ev sim.Event) {
		s := ev.Tgt.(*Switch)
		op := s.out[ev.Obj]
		op.busy = false
		s.dispatch(op)
	})
	r.RegisterHandler(sim.EvSwitchWake, func(_ sim.Time, ev sim.Event) {
		s := ev.Tgt.(*Switch)
		op := s.out[ev.Obj]
		if op.wakeAt == sim.Time(ev.Arg) {
			op.wakeAt = sim.Never
		}
		s.dispatch(op)
	})
}

// ReleaseInFlight returns every frame still buffered in the output queues to
// the pool and empties them. Part of the cluster-wide leak audit after Halt.
// A frame mid-transmission on an egress link is owned by the wire (pending
// EvPacketHop or already fault-released), not the switch, so there is nothing
// to skip here: dispatch pops a frame before handing it to the link.
func (s *Switch) ReleaseInFlight() {
	for _, op := range s.out {
		for i := range op.voq {
			r := &op.voq[i]
			for r.Len() > 0 {
				s.pool.Release(r.Pop().pkt)
			}
		}
		clear(op.backlog)
		for op.fifo.Len() > 0 {
			s.pool.Release(op.fifo.Pop().pkt)
		}
		op.queued = 0
		op.occupied = 0
	}
	s.occupied = 0
}

// Occupied returns the currently buffered bytes across the switch.
func (s *Switch) Occupied() int { return s.occupied }

// PortQueueDepth returns the number of packets waiting on output port i.
// Observability accessor; call from the switch's event context.
func (s *Switch) PortQueueDepth(i int) int { return s.out[i].queued }

// QueuedPackets returns the total packets waiting across all output ports.
func (s *Switch) QueuedPackets() int {
	total := 0
	for i := range s.out {
		total += s.out[i].queued
	}
	return total
}

// String identifies the switch in traces.
func (s *Switch) String() string {
	return fmt.Sprintf("switch(%s,%d ports,%v)", s.params.Name, s.params.Ports, s.params.Arch)
}
