package kernel

import (
	"fmt"

	"diablo/internal/cpu"
	"diablo/internal/nic"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
)

// Router supplies source routes for outgoing packets (implemented by
// topology.Topology). Routes are inline values: computing one is
// allocation-free.
type Router interface {
	Route(src, dst packet.NodeID) packet.Route
}

// Config configures one simulated server.
type Config struct {
	CPU     cpu.Model
	Profile Profile
	NIC     nic.Params
	TCP     tcp.Config

	// QdiscLen is the device transmit queue length in packets between the
	// stack and the NIC ring (Linux txqueuelen, default 1000).
	QdiscLen int

	// UDPRcvBuf is the per-socket datagram receive buffer in bytes.
	UDPRcvBuf int
}

// DefaultConfig returns a 4 GHz server with e1000 NIC and Linux 2.6.39.
func DefaultConfig() Config {
	return Config{
		CPU:       cpu.GHz(4),
		Profile:   Linux2639(),
		NIC:       nic.Defaults(),
		TCP:       tcp.DefaultConfig(),
		QdiscLen:  1000,
		UDPRcvBuf: 208 * 1024,
	}
}

// Validate checks the composite configuration.
func (c *Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if err := c.NIC.Validate(); err != nil {
		return err
	}
	if err := c.TCP.Validate(); err != nil {
		return err
	}
	if c.QdiscLen <= 0 {
		return fmt.Errorf("kernel: QdiscLen must be positive")
	}
	if c.UDPRcvBuf <= 0 {
		return fmt.Errorf("kernel: UDPRcvBuf must be positive")
	}
	return nil
}

// kworkOp selects the continuation of a kernel work item. The per-packet
// paths (NAPI delivery, TCP transmit) run millions of times per simulated
// second; carrying the packet plus a fixed op code instead of a capturing
// closure removes one heap allocation per item.
type kworkOp uint8

const (
	kwNone        kworkOp = iota // the zero op: never dispatched
	kwDeliverNapi                // deliver pkt, then continue the NAPI poll loop
	kwTransmit                   // transmit pkt (TCP segment / RST output)
	kwNapiPoll                   // enter the NAPI poll loop (IRQ entry, no pkt)
)

// kwork is one unit of kernel-context CPU work.
type kwork struct {
	kind KernelSpanKind
	d    sim.Duration
	op   kworkOp
	pkt  *packet.Packet
}

// KernelSpanKind classifies kernel-context CPU work for observability
// (Chrome-trace kernel lanes). It does not influence scheduling.
type KernelSpanKind uint8

const (
	KSpanOther   KernelSpanKind = iota // uncategorized kernel work
	KSpanIRQ                           // hardware interrupt entry
	KSpanSoftIRQ                       // NAPI poll / protocol receive processing
	KSpanTxTCP                         // TCP segment transmit processing
)

// String returns the trace label for the span kind.
func (k KernelSpanKind) String() string {
	if k <= KSpanTxTCP {
		return [...]string{"kernel", "irq", "softirq", "tcp_tx"}[k]
	}
	return "kernel"
}

// MachineStats aggregates per-server counters.
type MachineStats struct {
	QdiscDrops   uint64
	LoopbackPkts uint64
	Syscalls     uint64
	CtxSwitches  uint64
	Interrupts   uint64
}

// Machine is one simulated server: a single core, its kernel state, its NIC
// and its sockets. All methods must be invoked from the simulation's event
// context (or from a Thread belonging to this machine).
type Machine struct {
	eng  *sim.Engine // the partition's event queue, bound at wiring
	node packet.NodeID
	cfg  Config
	rng  *sim.Rand

	// slowdown stretches every CPU cost by this factor (>= 1). It models a
	// straggler window (thermal throttling, a co-located noisy neighbour):
	// the fault layer raises it for a bounded window and restores it to 1.
	slowdown float64
	// cost holds cfg.Profile's fixed charges at this slowdown (see SetSlowdown).
	cost struct{ ctxSwitch, wakeup, irq, rxUDP, rxTCP, txTCP, txTCPHalf, txUDPHalf, spawn sim.Duration }

	// CPU executor state.
	kq         sim.FIFO[kwork]
	kq0        [4]kwork // kq's first backing array: most machines never queue deeper
	kActive    bool
	kRun       kwork   // the kernel work item executing (valid while kActive)
	cur        *Thread // thread owning the CPU (may be paused by kernel work)
	chunkEvent sim.EventID
	chunkArmed bool
	chunkStart sim.Time
	chunkLen   sim.Duration
	runq       sim.FIFO[*Thread]
	runq0      [2]*Thread // runq's first backing array
	lastRun    *Thread
	inThread   bool // resumeThread is stepping a thread right now
	threads    []*Thread

	// Network state. pool is the partition's packet slab pool (nil = unpooled
	// heap mode); see packet.Pool for the ownership rules.
	dev       *nic.NIC
	router    Router
	pool      *packet.Pool
	qdisc     sim.FIFO[*packet.Packet]
	udpSocks  map[packet.Port]*UDPSocket
	listeners map[packet.Port]*TCPListener
	conns     map[connKey]*TCPSocket
	nextPort  packet.Port

	Util     cpu.Util
	Stats    MachineStats
	tcpStats tcp.Stats // every connection's counts, live or closed

	// Observability hooks (internal/obs). All are optional; every call site
	// guards with a nil check so a detached machine pays one pointer test.
	// Hooks run in this machine's event context and must not mutate model
	// state.

	// OnKernelSpan fires when a kernel-context work item starts executing on
	// the CPU, with its classification and duration.
	OnKernelSpan func(kind KernelSpanKind, start sim.Time, d sim.Duration)
	// OnSyscallSpan fires after a thread's syscall CPU charge completes.
	OnSyscallSpan func(thread string, start sim.Time, d sim.Duration)
	// OnPacketDelivered fires when a received packet reaches socket demux.
	OnPacketDelivered func(pkt *packet.Packet, at sim.Time)
}

// TCPStats returns the machine's aggregate TCP protocol statistics across
// live and closed connections: each counts straight into them.
func (m *Machine) TCPStats() tcp.Stats { return m.tcpStats }

// connKey identifies a connection on its machine: (local port, remote node,
// remote port) packed into one word, so the per-segment lookup hashes a
// uint64 and not a struct.
type connKey uint64

func newConnKey(local packet.Port, remote packet.Addr) connKey {
	return connKey(local)<<48 | connKey(uint32(remote.Node))<<16 | connKey(remote.Port)
}

// New creates a machine. wire is the NIC's egress link toward the ToR; the
// machine's NIC is registered as the endpoint for the reverse link by the
// cluster builder via Machine.NIC().
func New(eng *sim.Engine, node packet.NodeID, cfg Config, router Router, dev *nic.NIC, seed uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		eng:       eng,
		node:      node,
		cfg:       cfg,
		rng:       sim.NewRand(sim.DeriveSeed(seed, fmt.Sprintf("machine-%d", node))),
		dev:       dev,
		router:    router,
		udpSocks:  make(map[packet.Port]*UDPSocket),
		listeners: make(map[packet.Port]*TCPListener),
		conns:     make(map[connKey]*TCPSocket),
		nextPort:  32768,
	}
	m.kq, m.runq = sim.FIFOOn(m.kq0[:]), sim.FIFOOn(m.runq0[:])
	m.SetSlowdown(1)
	dev.OnRxInterrupt = m.rxInterrupt
	dev.OnTxDrain = m.drainQdisc
	return m, nil
}

// Node returns the machine's node ID.
func (m *Machine) Node() packet.NodeID { return m.node }

// NIC returns the machine's network device.
func (m *Machine) NIC() *nic.NIC { return m.dev }

// Now returns the simulated time.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// SetPool installs the partition's packet pool. Installed once at wiring
// time; a nil pool (the default) keeps plain heap allocation, which is the
// unpooled comparison mode.
func (m *Machine) SetPool(p *packet.Pool) { m.pool = p }

// newPacket allocates a zeroed packet from the partition pool. Every packet
// the machine originates (UDP datagram fragments, TCP segments, RSTs) comes
// through here so the creator side of the ownership rule has one spelling.
func (m *Machine) newPacket() *packet.Packet { return m.pool.Get() }

// SetSlowdown sets the straggler factor: every subsequent CPU cost is
// stretched by f (clamped to >= 1). CPU chunks already in flight complete at
// their original length, so the window granularity is one scheduler chunk.
func (m *Machine) SetSlowdown(f float64) {
	m.slowdown = max(f, 1)
	it, p, c := m.instrTime, &m.cfg.Profile, &m.cost
	c.ctxSwitch, c.wakeup, c.irq, c.spawn, c.rxUDP = it(p.CtxSwitchInstr), it(p.WakeupInstr), it(p.IRQInstr), it(p.SpawnInstr), it(p.RxUDPInstr)
	c.rxTCP, c.txTCP, c.txTCPHalf, c.txUDPHalf = it(p.RxTCPInstr), it(p.TxTCPInstr), it(p.TxTCPInstr/2), it(p.TxUDPInstr/2)
}

// scale applies the straggler factor to a CPU cost.
func (m *Machine) scale(d sim.Duration) sim.Duration {
	if m.slowdown == 1 {
		return d
	}
	return sim.Duration(float64(d) * m.slowdown)
}

// instrTime converts instructions to time on this machine's core.
func (m *Machine) instrTime(instr int64) sim.Duration { return m.scale(m.cfg.CPU.Time(instr)) }

// copyCost returns the user/kernel copy time for n bytes.
func (m *Machine) copyCost(n int) sim.Duration {
	return m.scale(m.cfg.CPU.Time(int64(float64(n) * m.cfg.Profile.CopyPerByte)))
}

// --- CPU executor ------------------------------------------------------------

// kernelWorkPkt queues non-preemptible kernel-context CPU work (interrupt
// and softirq handling, protocol processing) whose continuation is op on
// pkt. Kernel work has priority over user threads: a running user chunk is
// paused until the kernel queue drains.
func (m *Machine) kernelWorkPkt(kind KernelSpanKind, d sim.Duration, op kworkOp, pkt *packet.Packet) {
	m.kq.Push(kwork{kind: kind, d: d, op: op, pkt: pkt})
	m.scheduleCPU()
}

// scheduleCPU advances the CPU state machine. It is safe to call from any
// engine-context site; while a thread's program or kernel half is stepping,
// it defers to the resumeThread continuation.
func (m *Machine) scheduleCPU() {
	if m.inThread || m.kActive {
		return
	}
	// Kernel work first.
	if m.kq.Len() > 0 {
		if m.chunkArmed {
			m.pauseChunk()
		}
		w := m.kq.Pop()
		m.kActive = true
		m.kRun = w
		m.Util.Charge(w.d)
		if m.OnKernelSpan != nil {
			m.OnKernelSpan(w.kind, m.eng.Now(), w.d)
		}
		// Typed event on the hottest kernel path (every packet costs an IRQ
		// span, a softirq span and a TX span); the work item itself is parked
		// in m.kRun rather than captured in a closure.
		m.eng.AfterEvent(w.d, sim.Event{Kind: sim.EvKernelSpan, Tgt: m})
		return
	}
	if m.chunkArmed {
		return // a user chunk is already running
	}
	// Pick a user thread.
	if m.cur == nil {
		if m.runq.Len() == 0 {
			return // idle
		}
		m.cur = m.runq.Pop()
		if m.lastRun != m.cur {
			m.cur.remaining += m.cost.ctxSwitch
			m.Stats.CtxSwitches++
		}
		m.cur.sliceLeft = m.cfg.Profile.TimeSlice
		m.lastRun = m.cur
	}
	t := m.cur
	if t.remaining <= 0 {
		// The thread's pending CPU demand is satisfied: let it run on.
		m.resumeThread(t)
		return
	}
	chunk := t.remaining
	if m.runq.Len() > 0 && chunk > t.sliceLeft {
		chunk = t.sliceLeft
	}
	if chunk <= 0 {
		chunk = t.remaining // degenerate slice: run a full demand chunk
	}
	m.chunkArmed = true
	m.chunkStart = m.eng.Now()
	m.chunkLen = chunk
	m.chunkEvent = m.eng.AfterEvent(chunk, sim.Event{Kind: sim.EvTimerTick, Tgt: m})
}

// kernelSpanDone completes the executing kernel work item (the EvKernelSpan
// handler): the continuation runs with the CPU released.
func (m *Machine) kernelSpanDone() {
	w := m.kRun
	m.kRun = kwork{} // release the packet reference
	m.kActive = false
	switch w.op {
	case kwDeliverNapi:
		m.deliver(w.pkt)
		m.napiPoll()
	case kwTransmit:
		m.transmit(w.pkt)
	case kwNapiPoll:
		m.napiPoll()
	}
	m.scheduleCPU()
}

// RegisterEventHandlers installs this package's typed-event handlers on r
// (cascading to the NIC and link packages', which every machine depends on).
// core.New registers all model packages at wiring time; tests that drive an
// engine directly must call this before running machines.
func RegisterEventHandlers(r sim.HandlerRegistrar) {
	nic.RegisterEventHandlers(r)
	r.RegisterHandler(sim.EvKernelSpan, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Machine).kernelSpanDone()
	})
	r.RegisterHandler(sim.EvTimerTick, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Machine).chunkDone()
	})
	r.RegisterHandler(sim.EvLoopback, func(_ sim.Time, ev sim.Event) {
		ev.Tgt.(*Machine).deliver(ev.Ref.(*packet.Packet))
	})
	r.RegisterHandler(sim.EvThreadWake, func(_ sim.Time, ev sim.Event) {
		t := ev.Tgt.(*Thread)
		t.m.wake(t)
	})
	r.RegisterHandler(sim.EvThreadWakeBlocked, func(_ sim.Time, ev sim.Event) {
		// Timeout timers are not cancelled on early success; a stale record
		// must only wake a thread still blocked on a wait queue, exactly as
		// the closure it replaced checked. The thread's next record on its
		// lane takes the queue slot first.
		t := ev.Tgt.(*Thread)
		t.m.eng.LaneFired(&t.timeouts, ev)
		if t.state == threadBlocked {
			t.m.wake(t)
		}
	})
}

func (m *Machine) chunkDone() {
	m.chunkArmed = false
	t := m.cur
	m.Util.Charge(m.chunkLen)
	t.remaining -= m.chunkLen
	t.sliceLeft -= m.chunkLen
	if t.remaining > 0 {
		// Slice expired with demand left: rotate to the runqueue tail.
		m.runq.Push(t)
		m.cur = nil
	}
	m.scheduleCPU()
}

func (m *Machine) pauseChunk() {
	elapsed := m.eng.Now().Sub(m.chunkStart)
	m.Util.Charge(elapsed)
	m.cur.remaining -= elapsed
	m.cur.sliceLeft -= elapsed
	m.eng.Cancel(m.chunkEvent)
	m.chunkArmed = false
}

// resumeThread grants t the CPU it was waiting for, then reschedules. It steps
// the kernel half of the call in flight and, each time the thread has its
// result, runs the program on to its next call.
func (m *Machine) resumeThread(t *Thread) {
	m.inThread = true
	for t.op.kind == opNone || t.step() {
		t.op = threadOp{}
		t.state = threadOnCPU
		if !t.prog.Next(t, &t.res) {
			t.exit()
			break
		}
		t.res = Result{} // the call just made fills it in for the next Next
	}
	m.inThread = false
	m.scheduleCPU()
}

// wake makes a blocked or sleeping thread runnable, charging the scheduler
// wakeup cost.
func (m *Machine) wake(t *Thread) {
	if t.state != threadBlocked && t.state != threadSleeping {
		return
	}
	t.state = threadRunnable
	t.remaining += m.cost.wakeup
	m.runq.Push(t)
	m.scheduleCPU()
}

// --- transmit path -------------------------------------------------------------

// transmit routes pkt and hands it to the NIC (or the loopback path).
func (m *Machine) transmit(pkt *packet.Packet) {
	pkt.Src.Node = m.node
	if pkt.Dst.Node == m.node {
		m.Stats.LoopbackPkts++
		m.eng.AfterEvent(10*sim.Microsecond, sim.Event{Kind: sim.EvLoopback, Tgt: m, Ref: pkt})
		return
	}
	pkt.Route = m.router.Route(m.node, pkt.Dst.Node)
	pkt.Hop = 0
	if m.dev.Transmit(pkt) {
		return
	}
	if m.qdisc.Len() >= m.cfg.QdiscLen {
		m.Stats.QdiscDrops++
		m.pool.Release(pkt) // drop site: nothing downstream will ever see it
		return
	}
	m.qdisc.Push(pkt)
}

// drainQdisc pushes queued frames into freed TX descriptors.
func (m *Machine) drainQdisc() {
	for m.qdisc.Len() > 0 && m.dev.Transmit(m.qdisc.Live()[0]) {
		m.qdisc.Pop()
	}
}

// --- receive path --------------------------------------------------------------

// rxInterrupt is the NIC's hardware interrupt: charge IRQ entry, then poll
// (NAPI: interrupts stay masked while the poll loop drains the ring).
func (m *Machine) rxInterrupt() {
	m.Stats.Interrupts++
	m.dev.SetRxIntEnabled(false)
	// An op code, not a m.napiPoll method value: that would allocate a
	// bound closure per interrupt, i.e. per received packet.
	m.kernelWorkPkt(KSpanIRQ, m.cost.irq, kwNapiPoll, nil)
}

// napiPoll processes one frame per kernel-work item until the ring drains,
// then re-enables interrupts.
func (m *Machine) napiPoll() {
	pkt := m.dev.PopRx()
	if pkt == nil {
		m.dev.SetRxIntEnabled(true)
		return
	}
	cost := m.cost.rxUDP
	if pkt.Proto == packet.ProtoTCP {
		cost = m.cost.rxTCP
	}
	m.kernelWorkPkt(KSpanSoftIRQ, cost, kwDeliverNapi, pkt)
}

// deliver demultiplexes a received packet to its socket, then releases it:
// socket delivery is the packet's final consumer (UDP copies the datagram
// descriptor out, TCP extracts the header and payload boundaries, and every
// no-receiver branch just drops), so by the ownership rules the packet dies
// here — whether it arrived over the wire or over loopback.
func (m *Machine) deliver(pkt *packet.Packet) {
	if m.OnPacketDelivered != nil {
		m.OnPacketDelivered(pkt, m.eng.Now())
	}
	switch pkt.Proto {
	case packet.ProtoUDP:
		m.deliverUDP(pkt)
	case packet.ProtoTCP:
		m.deliverTCP(pkt)
	}
	m.pool.Release(pkt)
}

func (m *Machine) deliverTCP(pkt *packet.Packet) {
	key := newConnKey(pkt.Dst.Port, pkt.Src)
	if sock, ok := m.conns[key]; ok {
		sock.conn.Input(pkt)
		return
	}
	// No connection: a SYN for a listening port creates one.
	if pkt.TCP.Flags&packet.FlagSYN != 0 && pkt.TCP.Flags&packet.FlagACK == 0 {
		if lis, ok := m.listeners[pkt.Dst.Port]; ok {
			lis.incoming(pkt)
			return
		}
	}
	// Otherwise answer with a RST so peers retransmitting into a vanished
	// connection (e.g. a lost final ACK of a close handshake) terminate
	// instead of backing off forever.
	if pkt.TCP.Flags&packet.FlagRST == 0 {
		rst := m.newPacket()
		rst.Src = pkt.Dst
		rst.Dst = pkt.Src
		rst.Proto = packet.ProtoTCP
		rst.TCP = packet.TCPHdr{
			Flags: packet.FlagRST | packet.FlagACK,
			Seq:   pkt.TCP.Ack,
			Ack:   pkt.TCP.Seq + uint32(pkt.PayloadBytes),
		}
		m.kernelWorkPkt(KSpanTxTCP, m.cost.txTCPHalf, kwTransmit, rst)
	}
}

// ephemeralPort allocates a local port for an outgoing connection.
func (m *Machine) ephemeralPort() packet.Port {
	for {
		p := m.nextPort
		m.nextPort++
		if m.nextPort == 0 {
			m.nextPort = 32768
		}
		if _, udpTaken := m.udpSocks[p]; udpTaken {
			continue
		}
		return p
	}
}

// ReleaseInFlight releases every packet the machine still holds — the qdisc,
// queued kernel work items and the executing one — into the pool. Post-run
// accounting for the leak-balance gate (core.Cluster.ReleaseInFlight); must
// not be called while the engine is running.
func (m *Machine) ReleaseInFlight() {
	for _, pkt := range m.qdisc.Live() {
		m.pool.Release(pkt)
	}
	m.qdisc = sim.FIFO[*packet.Packet]{}
	for _, w := range m.kq.Live() {
		m.pool.Release(w.pkt) // nil for kwNapiPoll items: no-op
	}
	m.kq = sim.FIFO[kwork]{}
	if m.kActive {
		m.pool.Release(m.kRun.pkt)
		m.kRun = kwork{}
	}
	for _, t := range m.threads {
		m.pool.Release(t.op.pkt) // a datagram fragment waiting for its charge
		t.op.pkt = nil
	}
}

// Shutdown ends every thread on the machine (experiment teardown): a program
// simply stops, running no app code; a Spawn coroutine is unwound. The engine
// must not be running.
func (m *Machine) Shutdown() {
	for _, t := range m.threads {
		if c, ok := t.prog.(*coroutine); ok && c.stop != nil {
			c.stop()
		}
		t.exit()
	}
}
