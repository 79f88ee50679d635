package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ParallelEngine runs several partitions under conservative quantum-barrier
// synchronization. It mirrors DIABLO's physical organization: each FPGA ran
// its own simulation scheduler and synchronized with its neighbours over
// serial links at a granularity bounded by the target link latency. Here a
// partition is typically one simulated rack (plus one partition for the
// aggregation fabric), the quantum is the minimum latency of any
// inter-partition link, and cross-partition events are exchanged only at
// quantum barriers.
//
// Quantum boundaries lie on a fixed grid (integer multiples of the quantum),
// so the barrier schedule — and therefore the event order — is a property of
// the model, not of the execution: running the same model with 1, 2 or N
// worker threads produces byte-identical results.
//
// Determinism: each partition's engine is deterministic on its own, and
// cross-partition messages are merged in (time, source partition, send
// sequence) order before being scheduled, so a run's outcome is a pure
// function of the model and its seeds regardless of worker count (asserted
// in tests).
//
// A model can also run sequentially on the same engine: after ShareQueue every
// partition handle schedules into one queue, cross-partition sends become
// plain events (still checked against the lookahead rule) and the run goes
// through that one queue straight to its deadline. The grid is still there:
// Halt stops the run at the end of the quantum it is called in, so it lands
// on the same barrier either way. A one-partition engine has no barrier at
// all: RunUntil and Halt are the plain Engine's.
//
// The per-quantum machinery stays off the allocator and off the scheduler.
// There is no coordinator: RunUntil's caller is worker 0 and the workers meet
// once per quantum (see barrier.go). Before arriving, each worker publishes
// the earliest time anything it owns or sent can happen next, and whether it
// was asked to halt; after the rendezvous every worker derives the same next
// window from those slots. Cross-partition messages travel through
// worker-to-worker mailboxes that the receiving worker drains, sorts and
// schedules itself (SimBricks-style: each receiver polls its own inbound
// queues). Barrier cost is what bounds parallel-simulation scaling, so these
// paths are benchmarked by the root package's BenchmarkParallelClusterSpeedup
// and timed per quantum by the repository benchmark's sim.quantum_ns probe
// (bench/).
type ParallelEngine struct {
	parts []*Partition
	// engines are the distinct event queues: one per partition, or a single
	// one serving every partition after ShareQueue.
	engines []*Engine
	quantum Duration
	now     Time
	stop    atomic.Bool

	// runStart and runDeadline bound a shared-queue run: with the grid they
	// fix the quantum each of its events falls in (see quantumEnd).
	runStart, runDeadline Time

	// handlers is the jump table shared by every partition's engine, so an
	// event crossing partitions dispatches through the same handler it would
	// locally.
	handlers *handlerTable

	// workers execute the partitions: worker w owns the contiguous range
	// [w*P/W, (w+1)*P/W), a static assignment, so the mapping — and the
	// results — never depend on scheduling luck. workers[0] runs on RunUntil's
	// caller.
	workers []*worker
	// slots[parity][w] is what worker w published before the rendezvous of a
	// quantum of that parity. Two sets, because a fast worker publishes for
	// the next quantum while a slow one is still reading the last.
	slots [2][]slot
	// mail[parity][src*W+dst] holds the messages worker src's partitions sent
	// to worker dst's in a quantum of that parity. Only src appends to it, and
	// only dst empties it, one rendezvous later, while src fills the other
	// parity; capacity is kept across quanta.
	mail [2][]mailbox
	gate rendezvous

	// failedCrossCancels counts Cancel calls with a non-zero EventID through
	// a Cross scheduler (see crossScheduler.Cancel). Atomic: workers may
	// cancel concurrently during a quantum.
	failedCrossCancels atomic.Uint64

	// intro, when non-nil, collects per-quantum introspection (see
	// EnableIntrospection). nil keeps the hot path at one pointer test per
	// quantum.
	intro *engineIntro

	// Executed sums dispatched events across engines after each run.
	Executed uint64
}

// Partition is the per-partition scheduling handle. It satisfies Scheduler,
// so model components wired into partition i schedule local events through
// it exactly as they would on a sequential Engine. Nothing in it changes
// during a run, so any worker may read any partition's handle.
type Partition struct {
	pe  *ParallelEngine
	id  int
	eng *Engine
	w   *worker // the worker that runs this partition
}

// worker is one executor's state. Peers read only the fields above the
// padding, which never change during a run; the rest is private to the
// worker's own goroutine until RunUntil has joined it.
type worker struct {
	pe      *ParallelEngine
	id      int
	parts   []*Partition
	engines []*Engine
	_       [64]byte

	qEnd    Time   // end of the quantum executing (SendEvent's horizon)
	parity  int    // of the quantum executing: which mailboxes and slot are being filled
	sendSeq uint64 // orders this worker's sends, hence each of its partitions'
	sentMin Time   // earliest timestamp sent since the last publish
	inbox   []xmsg // receive's merge buffer, emptied (capacity kept) every time

	stats    BarrierStats
	panicked any // what a handler panicked with, for RunUntil to re-raise
}

// slot is what a worker tells its peers at the rendezvous, padded to a cache
// line so concurrent publishes never false-share.
type slot struct {
	earliest Time // nothing the worker owns or sent happens before this
	halt     bool // Halt was called, or a handler panicked
	_        [48]byte
}

// mailbox is one worker-to-worker message batch, padded like slot.
type mailbox struct {
	msgs []xmsg
	_    [40]byte
}

// xmsg is a cross-partition message: event ev bound for partition dst at
// time at.
type xmsg struct {
	at  Time
	seq uint64
	src int32
	dst int32
	ev  Event
}

// xmsgCompare orders messages in (time, source partition, send sequence)
// order — the model-defined total order barrier merges use.
func xmsgCompare(a, b xmsg) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.src < b.src:
		return -1
	case a.src > b.src:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// NewParallelEngine creates an engine with n partitions synchronized on a
// quantum-aligned barrier grid. quantum must be at most the minimum latency
// of any cross-partition interaction in the model, or causality would break;
// SendEvent enforces this at runtime.
func NewParallelEngine(n int, quantum Duration) *ParallelEngine {
	if n <= 0 {
		panic("sim: need at least one partition")
	}
	if quantum <= 0 {
		panic("sim: quantum must be positive")
	}
	pe := &ParallelEngine{quantum: quantum, handlers: newHandlerTable()}
	for i := 0; i < n; i++ {
		eng := &Engine{handlers: pe.handlers} // one table for every partition
		pe.engines = append(pe.engines, eng)
		pe.parts = append(pe.parts, &Partition{pe: pe, id: i, eng: eng})
	}
	pe.SetWorkers(1)
	return pe
}

// ShareQueue puts every partition on one event queue, turning the run
// sequential: events dispatch in a single (time, schedule-order) sequence and
// a cross-partition send schedules directly. The quantum grid, and with it
// the instant Halt takes effect, is unchanged. Call before anything is
// scheduled and before any partition's Engine is handed out.
func (pe *ParallelEngine) ShareQueue() {
	clear(pe.engines[1:]) // the discarded engines stay reachable otherwise
	pe.engines = pe.engines[:1]
	for _, p := range pe.parts {
		p.eng = pe.engines[0]
	}
	pe.SetWorkers(1)
}

// RegisterHandler installs a typed-event handler on the table shared by all
// partitions. Register before the run starts (core.New does): workers read
// the table without synchronization.
func (pe *ParallelEngine) RegisterHandler(k EvKind, h Handler) {
	pe.handlers.register(k, h)
}

// RegisterHandler is ParallelEngine.RegisterHandler through a partition
// handle: the table is the engine's, not the partition's.
func (p *Partition) RegisterHandler(k EvKind, h Handler) { p.pe.handlers.register(k, h) }

// shared reports whether several partitions share one queue (ShareQueue).
func (pe *ParallelEngine) shared() bool { return len(pe.engines) < len(pe.parts) }

// FailedCrossCancels reports how many times model code tried to cancel a
// non-zero EventID through a Cross scheduler. Cross-partition events cannot
// be cancelled (see crossScheduler.Cancel); a non-zero count means some
// component is holding an EventID that never named a cancellable event.
func (pe *ParallelEngine) FailedCrossCancels() uint64 {
	return pe.failedCrossCancels.Load()
}

// Partition returns the scheduling handle for partition i. Model components
// in partition i must schedule all their local events through this handle.
func (pe *ParallelEngine) Partition(i int) *Partition { return pe.parts[i] }

// Partitions returns the number of partitions.
func (pe *ParallelEngine) Partitions() int { return len(pe.parts) }

// Quantum returns the synchronization quantum.
func (pe *ParallelEngine) Quantum() Duration { return pe.quantum }

// Now returns the last completed barrier time.
func (pe *ParallelEngine) Now() Time { return pe.now }

// SetWorkers sets the number of workers that execute partitions each quantum:
// RunUntil's caller plus n-1 goroutines. Worker count affects wall-clock
// speed only, never results: partitions are statically assigned to workers
// and every quantum is a full barrier. Values are clamped to [1, number of
// queues] and to GOMAXPROCS, so a worker spinning at the barrier never holds
// the P its peer needs; 1 (the default) runs every partition on the caller's
// goroutine. Call before anything is sent across partitions.
func (pe *ParallelEngine) SetWorkers(n int) {
	n = max(1, min(n, len(pe.engines), runtime.GOMAXPROCS(0)))
	pe.workers = make([]*worker, n)
	pe.slots = [2][]slot{make([]slot, n), make([]slot, n)}
	pe.mail = [2][]mailbox{make([]mailbox, n*n), make([]mailbox, n*n)}
	pe.gate.init(n)
	np := len(pe.parts)
	for i := range pe.workers {
		lo, hi := i*np/n, (i+1)*np/n
		w := &worker{pe: pe, id: i, parts: pe.parts[lo:hi], engines: pe.engines, sentMin: Never}
		if len(pe.engines) > 1 {
			w.engines = pe.engines[lo:hi]
		}
		for _, p := range w.parts {
			p.w = w
		}
		pe.workers[i] = w
	}
}

// Workers returns the effective worker count.
func (pe *ParallelEngine) Workers() int { return len(pe.workers) }

// Halt requests that the run stop at the next quantum barrier. It is safe to
// call from any partition's event context during a run: the current quantum
// completes in full (on every partition) and pending cross-partition
// messages are exchanged before RunUntil returns, so a halted run remains
// deterministic and resumable. On a shared queue the run's deadline moves
// back to the end of the running quantum, the barrier a partitioned run
// would stop at. A one-partition engine has no barrier to wait for and stops
// after the current event.
func (pe *ParallelEngine) Halt() {
	switch e := pe.engines[0]; {
	case len(pe.parts) == 1:
		e.Halt()
	case pe.shared():
		e.stopAt(pe.quantumEnd(e.now))
	default:
		pe.stop.Store(true)
	}
}

// Engine returns the event queue the partition schedules on: its own, or the
// one every partition shares after ShareQueue. Model components are wired
// with it (core.New), so their scheduling calls go to the queue directly;
// the handle itself stays for run control, cross-partition sends and
// harnesses.
func (p *Partition) Engine() *Engine { return p.eng }

// Now returns the partition's local simulated time. Within a quantum this
// may run ahead of other partitions; it never exceeds the quantum boundary.
func (p *Partition) Now() Time { return p.eng.Now() }

// At schedules fn locally at the absolute time at.
func (p *Partition) At(at Time, fn func()) EventID { return p.eng.At(at, fn) }

// After schedules fn locally d after the partition's current time.
func (p *Partition) After(d Duration, fn func()) EventID { return p.eng.After(d, fn) }

// AtEvent schedules a typed event record locally at the absolute time at.
func (p *Partition) AtEvent(at Time, ev Event) EventID { return p.eng.AtEvent(at, ev) }

// AfterEvent schedules a typed event record locally d after the partition's
// current time.
func (p *Partition) AfterEvent(d Duration, ev Event) EventID { return p.eng.AfterEvent(d, ev) }

// Cancel prevents a locally scheduled event from running.
func (p *Partition) Cancel(id EventID) { p.eng.Cancel(id) }

// LaneAt schedules ev locally on lane l.
func (p *Partition) LaneAt(l *Lane, at Time, ev Event) { p.eng.LaneAt(l, at, ev) }

// LaneFired queues lane l's next record locally.
func (p *Partition) LaneFired(l *Lane, ev Event) { p.eng.LaneFired(l, ev) }

// Pending reports the number of events queued on the partition.
func (p *Partition) Pending() int { return p.eng.Pending() }

// ForEachPending invokes fn for every typed event still queued on any
// partition; see Engine.ForEachPending. Call only on a halted engine.
func (pe *ParallelEngine) ForEachPending(fn func(Event)) {
	for _, e := range pe.engines {
		e.ForEachPending(fn)
	}
}

// Send delivers fn to partition dst at absolute time at; it is shorthand for
// ParallelEngine.Send from this partition.
func (p *Partition) Send(dst int, at Time, fn func()) { p.pe.Send(p.id, dst, at, fn) }

// SendEvent delivers a typed event record to partition dst at absolute time
// at; it is shorthand for ParallelEngine.SendEvent from this partition.
func (p *Partition) SendEvent(dst int, at Time, ev Event) { p.pe.SendEvent(p.id, dst, at, ev) }

// Send delivers fn to partition dst at absolute time at: shorthand for
// SendEvent with the closure kind.
func (pe *ParallelEngine) Send(src, dst int, at Time, fn func()) {
	pe.SendEvent(src, dst, at, Event{Kind: evFunc, Tgt: fn})
}

// SendEvent delivers an event record to partition dst at absolute time at. It
// must be called from within partition src (i.e., from an event callback
// running on partition src's engine). at must not precede the end of the
// executing quantum; this is the conservative-lookahead requirement that lets
// partitions run a full quantum without hearing from their neighbours. The
// message goes into the sending worker's mailbox for the receiving worker;
// its seq is assigned here, completing the (time, source, sequence) merge
// key. On a single queue the message is just an event.
func (pe *ParallelEngine) SendEvent(src, dst int, at Time, ev Event) {
	checkKind(ev.Kind)
	w := pe.parts[src].w
	qEnd := w.qEnd
	if pe.shared() {
		qEnd = pe.quantumEnd(pe.engines[0].now)
	}
	if at < qEnd {
		panic(fmt.Sprintf(
			"sim: cross-partition send %d->%d at %v violates conservative lookahead: "+
				"the current quantum ends at %v (quantum %v), so cross-partition events must "+
				"be scheduled at or after the barrier; lower the engine quantum below the "+
				"minimum inter-partition link latency",
			src, dst, at, qEnd, pe.quantum))
	}
	if len(pe.engines) == 1 {
		pe.engines[0].AtEvent(at, ev)
		return
	}
	w.sendSeq++
	w.sentMin = min(w.sentMin, at)
	box := &pe.mail[w.parity][w.id*len(pe.workers)+pe.parts[dst].w.id]
	box.msgs = append(box.msgs, xmsg{at: at, seq: w.sendSeq, src: int32(src), dst: int32(dst), ev: ev})
}

// gridNext returns the earliest quantum-grid boundary strictly after t.
func (pe *ParallelEngine) gridNext(t Time) Time {
	q := Time(pe.quantum)
	return (t/q + 1) * q
}

// gridPrev returns the latest quantum-grid boundary strictly before t.
func (pe *ParallelEngine) gridPrev(t Time) Time {
	q := Time(pe.quantum)
	return (t - 1) / q * q
}

// quantumEnd returns the barrier that ends the quantum an event at t runs in
// during a shared-queue run, the one the stepped or partitioned run puts it
// in: the quantum holding t, or the one after the run's start for an event
// at the start, cut short by the run's deadline.
func (pe *ParallelEngine) quantumEnd(t Time) Time {
	return min(pe.gridNext(max(pe.runStart, pe.gridPrev(t))), pe.runDeadline)
}

// RunUntil advances all partitions to the deadline, one grid-aligned quantum
// at a time, exchanging cross-partition messages at each barrier. It returns
// early when every queue drains or when Halt is called. A panic raised by an
// event on any worker ends the run at the next rendezvous and is re-raised
// here, on the caller. A single queue, shared or of the only partition, runs
// straight through instead.
func (pe *ParallelEngine) RunUntil(deadline Time) {
	if len(pe.engines) == 1 {
		pe.runQueue(deadline)
		return
	}
	pe.stop.Store(false)
	// Scan the queues once; from here on the earliest event time comes out of
	// each rendezvous.
	earliest := Never
	for _, e := range pe.engines {
		earliest = min(earliest, e.NextEventTime())
	}

	var wg sync.WaitGroup
	start := pe.now
	for _, w := range pe.workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(start, earliest, deadline)
		}()
	}
	now := pe.workers[0].run(start, earliest, deadline)
	wg.Wait()
	var panicked any
	for _, w := range pe.workers {
		if pe.intro != nil {
			pe.intro.barrier.SpinWakes += w.stats.SpinWakes
			pe.intro.barrier.ParkWakes += w.stats.ParkWakes
		}
		if panicked == nil {
			panicked = w.panicked
		}
		w.stats, w.panicked = BarrierStats{}, nil
	}
	if panicked != nil {
		panic(panicked)
	}
	pe.now = now
	// The workers are gone; the caller takes in the last quantum's messages
	// for them.
	for _, w := range pe.workers {
		w.receive(w.parity ^ 1)
	}

	// On a drained or deadline exit, advance lagging partition clocks to the
	// deadline (as the sequential engine does); a Halt freezes them at the
	// last completed barrier instead.
	if !pe.stop.Load() && deadline != Never {
		for _, e := range pe.engines {
			if e.now < deadline {
				e.RunUntil(deadline)
			}
		}
	}
	pe.Executed = 0
	for _, e := range pe.engines {
		pe.Executed += e.Executed
	}
}

// runQueue runs the one queue to the deadline, with no barrier to step. A
// shared queue's run ends where a partitioned run would: at the end of the
// halting quantum (stopAt already put the queue there), or else at the
// deadline.
func (pe *ParallelEngine) runQueue(deadline Time) {
	e := pe.engines[0]
	pe.runStart, pe.runDeadline = e.now, deadline
	e.RunUntil(deadline)
	pe.now, pe.Executed = e.now, e.Executed
	if pe.shared() && e.until == deadline {
		pe.now = deadline
	}
}

// run is one worker's whole run: the same loop on every worker, in lockstep.
// now is the last completed barrier and earliest the soonest event anywhere;
// both are recomputed identically by every worker after each rendezvous, so
// all of them pick the same windows and leave the loop together. It returns
// the barrier the run stopped at.
func (w *worker) run(now, earliest, deadline Time) Time {
	pe := w.pe
	if len(pe.workers) > 1 {
		defer w.bail()
	}
	for halt := false; now < deadline && !halt; {
		// Skip ahead over quiet periods: if nothing happens in the next
		// quantum, jump to the quantum containing the earliest event.
		if earliest == Never || earliest > deadline {
			return deadline
		}
		// The last quantum's messages are scheduled only now that the run is
		// known to go on: should a queue reject one, the panic still has a
		// rendezvous ahead of it that the peers will come to.
		w.receive(w.parity ^ 1)
		now = max(now, pe.gridPrev(earliest))
		w.qEnd = min(pe.gridNext(now), deadline)
		next := Never
		for _, e := range w.engines {
			e.RunUntil(w.qEnd)
			next = min(next, e.NextEventTime())
		}
		now = w.qEnd
		if pe.intro != nil {
			pe.intro.note(w.id == 0, w.parts)
		}

		// The halt flag is read after this worker's own events ran: the
		// worker whose event called Halt is sure to publish it, which is all
		// the others need.
		slots := pe.slots[w.parity]
		slots[w.id].earliest, slots[w.id].halt = min(next, w.sentMin), pe.stop.Load()
		w.sentMin = Never
		w.parity ^= 1
		pe.gate.await(&w.stats)
		earliest = Never
		for i := range slots {
			earliest = min(earliest, slots[i].earliest)
			halt = halt || slots[i].halt
		}
	}
	return now
}

// bail keeps a panicking worker from stranding its peers at the rendezvous:
// it keeps the panic value for RunUntil, asks everyone to halt and arrives in
// the panicking worker's place.
func (w *worker) bail() {
	if w.panicked = recover(); w.panicked != nil {
		s := &w.pe.slots[w.parity][w.id]
		s.earliest, s.halt = Never, true
		w.parity ^= 1
		w.pe.gate.await(&w.stats)
	}
}

// receive schedules the messages sent to w's partitions in the last quantum,
// of parity par, whose rendezvous has passed: gather the W mailboxes
// addressed to w, merge in (time, source partition, send sequence) order — a
// total order that depends only on the model — and schedule into w's own
// queues. The senders will not touch these mailboxes again before the next
// rendezvous. Mailboxes and the merge buffer are emptied, never reallocated.
func (w *worker) receive(par int) {
	in := w.inbox
	n := len(w.pe.workers)
	for from := 0; from < n; from++ {
		box := &w.pe.mail[par][from*n+w.id]
		in = append(in, box.msgs...)
		clear(box.msgs) // drop payload references, keep capacity
		box.msgs = box.msgs[:0]
	}
	if len(in) > 1 {
		slices.SortFunc(in, xmsgCompare)
	}
	for i := range in {
		m := &in[i]
		w.pe.parts[m.dst].eng.AtEvent(m.at, m.ev)
	}
	clear(in)
	w.inbox = in[:0]
}

// Drained reports whether every partition's queue is empty and no message is
// waiting in a mailbox.
func (pe *ParallelEngine) Drained() bool {
	for _, e := range pe.engines {
		if e.NextEventTime() != Never {
			return false
		}
	}
	for _, w := range pe.workers {
		if w.sentMin != Never { // sent, and no rendezvous since
			return false
		}
	}
	return true
}

// Cross returns a Scheduler that, from event context in partition src,
// schedules events onto partition dst. Now reads the source partition's
// clock; every schedule routes through SendEvent, so the conservative-
// lookahead rule applies and the returned EventID is zero (cross-partition
// events cannot be cancelled). Links that span partitions are wired with a Cross scheduler as
// their delivery side.
func (pe *ParallelEngine) Cross(src, dst int) Scheduler {
	return crossScheduler{pe: pe, src: src, dst: dst}
}

type crossScheduler struct {
	pe       *ParallelEngine
	src, dst int
}

func (c crossScheduler) Now() Time { return c.pe.parts[c.src].eng.Now() }

func (c crossScheduler) At(at Time, fn func()) EventID {
	return c.AtEvent(at, Event{Kind: evFunc, Tgt: fn})
}

func (c crossScheduler) After(d Duration, fn func()) EventID {
	return c.At(c.Now().Add(d), fn)
}

func (c crossScheduler) AtEvent(at Time, ev Event) EventID {
	c.pe.SendEvent(c.src, c.dst, at, ev)
	return EventID{}
}

func (c crossScheduler) AfterEvent(d Duration, ev Event) EventID {
	return c.AtEvent(c.Now().Add(d), ev)
}

// A lane's nodes live in its partition's engine, so lanes are local.
func (c crossScheduler) LaneAt(*Lane, Time, Event) { panic("sim: a lane cannot cross partitions") }
func (c crossScheduler) LaneFired(*Lane, Event)    { panic("sim: a lane cannot cross partitions") }

// Cancel's contract on a Cross scheduler: cross-partition events cannot be
// cancelled — once a message is batched for the barrier exchange (and, a
// quantum later, scheduled on the destination engine), no handle back to it
// exists, which is why At/AtEvent return the zero EventID. Cancelling that
// zero ID is therefore the expected no-op. A *non-zero* ID reaching this
// method is a model bug — the caller is trying to cancel some other engine's
// event through a cross handle — and is recorded on the engine
// (ParallelEngine.FailedCrossCancels) so tests and harnesses can assert none
// occurred.
func (c crossScheduler) Cancel(id EventID) {
	if id == (EventID{}) {
		return
	}
	c.pe.failedCrossCancels.Add(1)
}
