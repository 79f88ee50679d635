package kernel

import (
	"fmt"
	"iter"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

type threadState uint8

const (
	threadRunnable threadState = iota
	threadOnCPU
	threadBlocked
	threadSleeping
	threadDead
)

// killSentinel is the panic value that unwinds a thread: Exit raises it, and
// so does park when Shutdown stops the coroutine.
type killSentinel struct{}

// Thread is one simulated kernel thread. Application code runs in a
// coroutine that advances only when the machine's scheduler grants it the
// simulated CPU; every interaction with the simulated world goes through
// Thread methods, which charge CPU time and block deterministically.
//
// The coroutine and the simulation engine strictly alternate by direct
// switch (iter.Pull: no Go-scheduler round trip), so simulations remain
// single-threaded and deterministic.
type Thread struct {
	m    *Machine
	name string

	state threadState
	//diablo:transient coroutine handle; re-created by Spawn on restore (app stack state is not encodable — ROADMAP item 2b)
	co struct {
		next  func() (struct{}, bool) // run the thread until it parks or ends
		stop  func()                  // unwind a parked thread for good
		yield func(struct{}) bool     // park; false means the thread was stopped
	}
	remaining sim.Duration // CPU time owed before app code may continue
	sliceLeft sim.Duration

	op      threadOp     // the blocking call in flight (kind opNone: none)
	evbuf   []EpollEvent // backing store of this thread's Epoll.Wait results
	resumes uint64       // times resumeThread switched into the coroutine
}

// Spawn creates a thread running fn. The thread becomes runnable after the
// clone cost; Spawn may be called during cluster construction or from
// another thread.
func (m *Machine) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{
		m:     m,
		name:  name,
		state: threadRunnable,
	}
	t.remaining = m.instrTime(m.cfg.Profile.SpawnInstr)
	m.threads = append(m.threads, t)
	t.co.next, t.co.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.co.yield = yield
		defer func() {
			t.state = threadDead
			t.op, t.evbuf = threadOp{}, nil // a call cut short must not pin its sockets and payloads
			if m.cur == t {
				m.cur = nil
			}
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r) // app bug: iter.Pull re-raises it in resumeThread's caller
				}
			}
		}()
		t.park() // until first scheduled
		fn(t)
	})
	// Prime the coroutine up to that first park, so a thread spawned at set-up
	// pays for its coroutine at set-up and not at its first dispatch.
	t.co.next()
	// Enqueue via an event so the runqueue push happens inside the engine's
	// run loop regardless of the caller's context.
	m.eng.At(m.eng.Now(), func() {
		m.runq = append(m.runq, t)
		m.scheduleCPU()
	})
	return t
}

// park hands control back to the machine and waits to be granted the CPU
// again. Must only be called from the thread's own coroutine.
func (t *Thread) park() {
	if !t.co.yield(struct{}{}) {
		panic(killSentinel{})
	}
	t.state = threadOnCPU
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Now returns the simulated time.
func (t *Thread) Now() sim.Time { return t.m.eng.Now() }

// Rand returns the machine's deterministic random stream.
func (t *Thread) Rand() *sim.Rand { return t.m.rng }

// Compute burns the given number of instructions of CPU time (application
// work). The call returns when the simulated core has executed them,
// accounting for preemption by interrupts and other threads.
func (t *Thread) Compute(instructions int64) {
	t.computeTime(t.m.instrTime(instructions))
}

// computeTime burns d of CPU demand.
func (t *Thread) computeTime(d sim.Duration) {
	if d <= 0 {
		return
	}
	t.remaining += d
	t.state = threadRunnable // remains current on the CPU
	t.park()
}

// opKind names the kernel half of a blocking call.
type opKind uint8

const (
	opNone    opKind = iota
	opSyscall        // the entry charge is the whole call
	opSleep
	opYield
	opEpollWait
	opUDPRecv
	opTCPSend
	opTCPRecv
	opAccept
	opConnect
	opCondWait
	opBarrierWait
	opWaitGroup // not a syscall: enters at opPoll
)

// The phases of a call, in order.
const (
	opEnter uint8 = iota // charge the syscall entry cost
	opArm                // entry charged: report the span, arm the timeout record
	opPoll               // complete the call or block; re-entered after every wakeup
	opDone               // the completion charge (copy, epoll dispatch) is paid
)

// threadOp is one blocking call in flight. The calling coroutine fills in the
// arguments and parks once (Thread.run, Thread.call); Thread.step runs the
// kernel half in engine context and leaves the results here. It is a tagged struct inside
// Thread, so a call allocates nothing.
type threadOp struct {
	kind      opKind
	phase     uint8
	nowait    bool // MSG_DONTWAIT / zero epoll timeout: never block
	timed     bool // timeout is a receive deadline, armed in opArm
	waited    bool // the call gave up the CPU at least once
	connected bool // opConnect: the handshake completed

	extra    int64        // entry instructions beyond Profile.SyscallInstr
	start    sim.Time     // entry instant, for OnSyscallSpan
	timeout  sim.Duration // opSleep: how long; timed calls: how far off the deadline is
	deadline sim.Time
	n        int         // epoll: maxEvents; TCP: byte limit or bytes left to send; barrier: releasing generation
	remote   packet.Addr // opConnect: the peer

	// The object the call is on, by kind.
	ep   *Epoll
	udp  *UDPSocket
	tcp  *TCPSocket // opAccept and opConnect: the result
	lis  *TCPListener
	cond *Cond
	bar  *Barrier
	wg   *WaitGroup

	// Results.
	got int          // TCP bytes read
	dg  udpDgram     // UDP datagram received
	evs []EpollEvent // ready events: a prefix of Thread.evbuf, or nil
	//diablo:transient errno-style error and opaque app messages of the call in flight; they encode like TCPSocket.err and udpDgram.payload
	dyn struct {
		err     error
		payload any   // opTCPSend: the message being written
		msgs    []any // opTCPRecv: the messages completed
	}
}

// expired reports whether the call must return empty-handed rather than block
// (again). A deadline can only have passed after one block/wake cycle.
func (op *threadOp) expired(now sim.Time) bool {
	return op.nowait || op.timed && op.waited && now >= op.deadline
}

// run is the user half of the call the caller has put in t.op: the coroutine
// parks at most once, however often the kernel half (step) charges CPU, blocks
// or absorbs a wakeup that finds nothing. The record is cleared afterwards.
func (t *Thread) run() {
	if !t.step() {
		t.park()
	}
	t.op = threadOp{}
}

// call is run for a call with results: it returns the finished record.
func (t *Thread) call() (op threadOp) {
	if !t.step() {
		t.park()
	}
	op, t.op = t.op, threadOp{}
	return op
}

// step runs the kernel half of the call in flight as far as it goes without
// the CPU or an outside event, and reports whether the call has its result.
// It runs with m.inThread set: on the coroutine at entry (so a call that needs
// neither never parks), then from resumeThread at every instant the CPU is
// granted back, in place of switching to the coroutine.
func (t *Thread) step() bool {
	m, op := t.m, &t.op
	t.state = threadOnCPU
	for {
		switch op.phase {
		case opEnter:
			m.Stats.Syscalls++
			op.start = m.eng.Now()
			t.remaining += m.instrTime(m.cfg.Profile.SyscallInstr + op.extra)
			op.phase = opArm
		case opArm:
			if m.OnSyscallSpan != nil {
				m.OnSyscallSpan(t.name, op.start, m.eng.Now().Sub(op.start))
			}
			if op.timed {
				// A typed wake-if-still-blocked record plus a deadline comparison.
				// The record is not cancelled on early success: a stale one only
				// ever wakes a blocked thread, whose poll then blocks again.
				op.deadline = m.eng.Now().Add(op.timeout)
				m.eng.AfterEvent(op.timeout, sim.Event{Kind: sim.EvThreadWakeBlocked, Tgt: t})
			}
			op.phase = opPoll
		case opPoll:
			q, done := t.poll()
			if q != nil {
				t.block(q)
				return false
			}
			if t.state != threadOnCPU {
				return false // asleep, or yielded to the runqueue
			}
			if done {
				op.phase = opDone
			}
		case opDone:
			return true
		}
		if t.remaining > 0 {
			t.state = threadRunnable // remains current on the CPU; scheduleCPU steps again once it is paid
			return false
		}
	}
}

// poll tries to complete the call in flight. It returns the wait queue to
// block on, or nil and whether the call is complete (sleep and yield leave the
// CPU by themselves); any CPU the attempt cost is added to t.remaining.
func (t *Thread) poll() (*waitQueue, bool) {
	m, op := t.m, &t.op
	switch op.kind {
	case opSleep:
		if op.waited || op.timeout <= 0 {
			return nil, true
		}
		t.offCPU(threadSleeping)
		m.eng.AfterEvent(op.timeout, sim.Event{Kind: sim.EvThreadWake, Tgt: t})
		return nil, false
	case opYield:
		if op.waited || m.RunQueueLen() == 0 {
			return nil, true
		}
		t.offCPU(threadRunnable)
		m.runq = append(m.runq, t)
		return nil, false
	case opEpollWait:
		return op.ep.pollWait(t, op)
	case opUDPRecv:
		return op.udp.pollRecv(t, op)
	case opTCPSend:
		return op.tcp.pollSend(t, op)
	case opTCPRecv:
		return op.tcp.pollRecv(t, op)
	case opAccept:
		return op.lis.pollAccept(t, op)
	case opConnect:
		return t.pollConnect(op)
	case opCondWait:
		if !op.waited {
			return &op.cond.wq, false
		}
	case opBarrierWait:
		return op.bar.pollWait(op)
	case opWaitGroup:
		if op.wg.count > 0 {
			return &op.wg.wq, false
		}
	}
	return nil, true
}

// syscall charges the base syscall cost plus extra instructions.
func (t *Thread) syscall(extra int64) {
	t.op = threadOp{kind: opSyscall, extra: extra}
	t.run()
}

// Sleep blocks the thread for d of simulated time (nanosleep).
func (t *Thread) Sleep(d sim.Duration) {
	t.op = threadOp{kind: opSleep, timeout: d}
	t.run()
}

// Yield gives up the CPU voluntarily (sched_yield).
func (t *Thread) Yield() {
	t.op = threadOp{kind: opYield}
	t.run()
}

// Exit terminates the thread from within (fn simply returning is
// equivalent).
func (t *Thread) Exit() {
	panic(killSentinel{})
}

// offCPU takes the running thread off the CPU in state s, inside a call (which
// from then on counts as having waited).
func (t *Thread) offCPU(s threadState) {
	t.op.waited = true
	t.state = s
	if t.m.cur == t {
		t.m.cur = nil
	}
}

// block enqueues t on q and takes it off the CPU until q (or a timeout
// record) wakes it.
func (t *Thread) block(q *waitQueue) {
	q.enqueue(t)
	t.offCPU(threadBlocked)
}

// waitQueue is a FIFO of threads blocked on a condition. Head-indexed like
// Machine.kq: popping advances head and the backing array is reused, so the
// block/wake cycle every request goes through allocates nothing in steady
// state (a naive waiters = waiters[1:] strands the popped capacity and
// re-allocates on every enqueue).
type waitQueue struct {
	waiters []*Thread
	head    int
	first   [1]*Thread // waiters' first backing array: one waiter is the common case
}

func (q *waitQueue) enqueue(t *Thread) {
	if q.waiters == nil {
		q.waiters = q.first[:0]
	}
	q.waiters = append(q.waiters, t)
}

// wakeOne wakes the oldest still-blocked waiter; reports whether one was
// woken. Stale entries (threads already woken by a timeout, or dead) are
// skipped so wakeups are never lost.
func (q *waitQueue) wakeOne(m *Machine) bool {
	for q.head < len(q.waiters) {
		t := q.waiters[q.head]
		q.waiters[q.head] = nil
		q.head++
		if q.head == len(q.waiters) {
			q.waiters = q.waiters[:0]
			q.head = 0
		}
		if t.state != threadBlocked {
			continue
		}
		m.wake(t)
		return true
	}
	return false
}

// wakeAll wakes every waiter.
func (q *waitQueue) wakeAll(m *Machine) {
	for q.wakeOne(m) {
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s@n%d)", t.name, t.m.node)
}
