package sim

import "fmt"

// EventID identifies a scheduled event so it can be cancelled. It is a
// (slot, generation) pair into the engine's slot pages — see queue.go — so
// cancellation is O(1) and a stale ID (fired, already cancelled, or simply
// fabricated) is rejected by the generation check without touching any
// structure. The zero EventID is invalid and Cancel ignores it.
type EventID struct {
	slot uint32 // 1-based slot index; 0 marks the zero (invalid) ID
	gen  uint32
}

// Engine is a sequential discrete-event simulation engine. All model state is
// owned by the engine's single logical thread of control: callbacks run one
// at a time, in (time, schedule-order) order, so a simulation is a pure
// function of its initial state and seeds.
//
// Events live in a sorted near run fed by a hierarchical timing wheel (see
// queue.go) that dispatches in exactly the order a single sorted list would,
// with O(1) scheduling, cancelling and popping at every distance.
type Engine struct {
	now    Time
	seq    uint64
	q      eventQueue
	halted bool
	// until is the running RunUntil's deadline, which stopAt may lower.
	until Time

	// handlers is the event jump table (see event.go). Partitions of a
	// ParallelEngine share one table.
	handlers *handlerTable

	// Executed counts dispatched events, for performance reporting (§5).
	Executed uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{handlers: newHandlerTable()}
}

// RegisterHandler installs the handler dispatched for typed events of kind k
// (last registration wins). Call before scheduling events of that kind —
// normally once at wiring time (core.New registers every model package's
// handlers on the cluster engine).
func (e *Engine) RegisterHandler(k EvKind, h Handler) { e.handlers.register(k, h) }

// dispatch pops the live head that q.head returned, advances the clock to it
// and runs it through the jump table straight from its slot, which is freed
// when the handler returns. The slot's generation is bumped first, so the
// event's own EventID is already stale inside its handler.
func (e *Engine) dispatch(s uint32, rec *slotRec, at Time) {
	e.q.nearPos++
	e.q.queued--
	rec.gen++
	e.now = at
	e.Executed++
	h := e.handlers[rec.ev.Kind]
	if h == nil {
		panic(fmt.Sprintf("sim: no handler registered for %v: call RegisterHandler before scheduling typed events (core.New registers the model packages' handlers; tests driving an Engine directly must call the package RegisterEventHandlers helpers themselves)", rec.ev.Kind))
	}
	h(at, rec.ev)
	e.q.release(s, rec)
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the absolute time at: shorthand for AtEvent with
// the closure kind, under the same past-time and horizon rules.
func (e *Engine) At(at Time, fn func()) EventID {
	return e.AtEvent(at, Event{Kind: evFunc, Tgt: fn})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) EventID {
	return e.AfterEvent(d, Event{Kind: evFunc, Tgt: fn})
}

// AtEvent schedules an event record at the absolute time at, writing it once,
// straight into its slot; nothing is allocated unless the queue outgrows its
// storage. Scheduling in the past (before Now) panics: it would silently
// reorder causality. Scheduling past maxSchedulable (Never minus three wheel
// spans, ≈ 106 simulated days) panics too; use Never-bounded run deadlines,
// not Never-adjacent events.
func (e *Engine) AtEvent(at Time, ev Event) EventID {
	e.seq++
	return e.enqueue(at, e.seq, ev)
}

// enqueue checks and files ev under (at, seq) in the most recently freed slot,
// or else the next fresh one; AtEvent and LaneFired take every slot here.
// AtEvent stays small enough to inline, so a schedule costs one call. The
// record is written field by field: copying the whole Event reloads the
// register-passed value from narrower stack stores with wide loads, a
// store-forwarding stall. TestEnqueueCopiesEvent fails if Event gains a field
// this list does not name.
func (e *Engine) enqueue(at Time, seq uint64, ev Event) EventID {
	checkKind(ev.Kind)
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %v at %v before now %v", ev.Kind, at, e.now))
	}
	if at > maxSchedulable {
		panic(fmt.Sprintf("sim: event time %d ps is beyond the schedulable horizon", int64(at)))
	}
	q := &e.q
	if q.free == 0 {
		q.freshSlot()
	}
	s := q.free - 1
	rec := q.rec(s)
	q.free = rec.next
	q.queued++
	rec.ev.Kind, rec.ev.Obj, rec.ev.Arg, rec.ev.Tgt, rec.ev.Ref = ev.Kind, ev.Obj, ev.Arg, ev.Tgt, ev.Ref
	ent := entry{at: at, seq: seq, slot: s}
	if at >= q.nearEnd && at < q.wheelEnd { // place's level-0 case, without the call
		q.bucketAppend(int(at>>wheelGranularityBits)&nearMask, ent)
	} else {
		q.place(ent)
	}
	return EventID{slot: s + 1, gen: rec.gen}
}

// AfterEvent schedules an event record d after the current time. A negative
// d panics, as any schedule before Now does.
func (e *Engine) AfterEvent(d Duration, ev Event) EventID {
	return e.AtEvent(e.now.Add(d), ev)
}

// Cancel prevents a scheduled event from running. Cancelling an event that
// has already fired (or was already cancelled) is a no-op.
func (e *Engine) Cancel(id EventID) {
	e.q.cancel(id)
}

// Pending reports the number of events still queued, including cancelled
// events not yet popped: one cancelled inside the wheel window (within a few
// tens of microseconds of the head) stays queued until it surfaces, one
// cancelled further out leaves at once.
func (e *Engine) Pending() int { return e.q.size() }

// ForEachPending invokes fn for every still-queued typed event record, in
// slot order (not dispatch order). Closures and TimerEvent records are
// skipped — their targets are opaque. Callers use this for accounting over a
// halted engine (the packet-leak audit walks it to find frames carried by
// in-flight EvPacketHop/EvLoopback events), never for simulation semantics.
func (e *Engine) ForEachPending(fn func(Event)) { e.q.forEachPending(fn) }

// Halt stops the run loop after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// Run dispatches events until the queue is empty or Halt is called.
func (e *Engine) Run() {
	e.RunUntil(Never)
}

// RunUntil dispatches events with timestamps <= deadline, advances Now to
// deadline if the queue drains early, and returns. Events exactly at the
// deadline are executed.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	e.until = deadline
	for !e.halted {
		s, rec, at, ok := e.q.head()
		if !ok {
			break
		}
		if at > e.until {
			e.now = e.until
			return
		}
		e.dispatch(s, rec, at)
	}
	// When the queue drains before the deadline, time still passes; a Halt,
	// however, freezes the clock at the last dispatched event.
	if !e.halted && e.until != Never && e.now < e.until {
		e.now = e.until
	}
}

// stopAt moves the running RunUntil's deadline back to t, if t is earlier:
// every event up to t still runs, and the clock then stands at t. A shared
// queue's Halt uses it to stop on the quantum grid (see ParallelEngine.Halt).
func (e *Engine) stopAt(t Time) { e.until = min(e.until, t) }

// Step dispatches the single next live event, if any, and reports whether one
// was dispatched.
func (e *Engine) Step() bool {
	s, rec, at, ok := e.q.head()
	if ok {
		e.dispatch(s, rec, at)
	}
	return ok
}

// NextEventTime returns the timestamp of the earliest live event, or Never.
// Cancelled events that surface at the head are discarded on the way (so
// Pending may drop), exactly as the heap engine behaved.
func (e *Engine) NextEventTime() Time {
	if _, _, at, ok := e.q.head(); ok {
		return at
	}
	return Never
}
