package kernel

import (
	"fmt"
	"iter"
	"slices"

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

// killSentinel is the panic value that unwinds a Spawn thread's coroutine:
// Exit raises it, and so does a parked call when Shutdown stops the coroutine.
type killSentinel struct{}

// Program is a thread's body as data: a struct with a program counter. Next
// runs the thread on from the result of its last call (res; zero at the start
// and after Compute) up to its next call — a syscall, Sleep or Compute — and
// returns. In a program thread a call returns zero values at once; its results
// arrive through res in the next Next, at the instant the call completes. One
// Next makes at most one call (the kernel panics on a second), and a Next that
// makes none is called again at once; returning false ends the thread.
type Program interface {
	Next(t *Thread, res *Result) bool
}

// Result is what a thread's last call returned: each field is set by the calls
// named beside it, the rest are zero.
type Result struct {
	N        int          // TCP Recv/TryRecv: bytes read; UDP receives: datagram bytes
	From     packet.Addr  // UDP receives: the sender
	Events   []EpollEvent // Epoll.Wait: the ready events, valid until the thread's next Wait
	Epoll    *Epoll       // EpollCreate
	UDP      *UDPSocket   // UDPSocket
	Listener *TCPListener // Listen
	TCP      *TCPSocket   // Connect, Accept, TryAccept
	v        struct {
		err  error
		msg  packet.Msg   // UDP receives: the datagram's message
		msgs []packet.Msg // TCP Recv/TryRecv: the messages completed
	}
}

// Err returns the call's error.
func (r Result) Err() error { return r.v.err }

// Msg returns the message of the datagram a UDP receive got.
func (r Result) Msg() packet.Msg { return r.v.msg }

// Msgs returns the application messages a TCP receive completed, valid until
// the thread's next TCP receive.
func (r Result) Msgs() []packet.Msg { return r.v.msgs }

// Thread is one simulated kernel thread. Its Program advances only when the
// machine's scheduler grants it the simulated CPU; every interaction with the
// simulated world goes through Thread methods, which charge CPU time and block
// deterministically. The program runs in engine context, so simulations
// remain single-threaded and deterministic.
type Thread struct {
	m    *Machine
	name string

	state     threadState
	prog      Program
	remaining sim.Duration // CPU time owed before the program may continue
	sliceLeft sim.Duration

	op      threadOp      // the call in flight (kind opNone: none)
	res     Result        // what the last call returned, for the next Next
	evbuf   []EpollEvent  // backing store of this thread's Epoll.Wait results
	msgs    []packet.Msg  // backing store of this thread's TCP receive results
	msgs0   [1]packet.Msg // msgs' first backing array: one message is the common case
	resumes uint64        // times a Spawn thread's coroutine was switched into

	timeouts sim.Lane // the EvThreadWakeBlocked records of timed calls, stale ones included
}

// Start creates a thread running program p. The thread becomes runnable after
// the clone cost; Start may be called during cluster construction or from
// another thread.
func (m *Machine) Start(name string, p Program) *Thread {
	t := &Thread{m: m, name: name, state: threadRunnable, prog: p}
	t.remaining, t.msgs = m.cost.spawn, t.msgs0[:0]
	m.threads = append(m.threads, t)
	// Enqueue via an event so the runqueue push happens inside the engine's
	// run loop regardless of the caller's context.
	m.eng.At(m.eng.Now(), func() {
		m.runq.Push(t)
		m.scheduleCPU()
	})
	return t
}

// Spawn creates a thread running fn, a plain function: an adapter Program
// runs fn on an iter.Pull coroutine that parks at every call, so each call
// costs a stack switch. In-tree models are programs started with Start.
func (m *Machine) Spawn(name string, fn func(*Thread)) *Thread {
	return m.Start(name, &coroutine{fn: fn})
}

// coroutine is the Program behind Spawn: each Next switches into fn until its
// next call parks it, or it ends.
type coroutine struct {
	fn    func(*Thread)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func (c *coroutine) Next(t *Thread, _ *Result) bool {
	if c.next == nil {
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			c.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killSentinel); !ok {
						panic(r) // app bug: iter.Pull re-raises it in resumeThread's caller
					}
				}
			}()
			c.fn(t)
		})
	}
	t.resumes++
	_, more := c.next()
	return more
}

// exit ends the thread: a call cut short must not pin its sockets, payloads
// or the program's state.
func (t *Thread) exit() {
	t.state = threadDead
	t.op, t.res, t.evbuf, t.prog = threadOp{}, Result{}, nil, nil
	if t.m.cur == t {
		t.m.cur = nil
	}
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
// work). The thread continues when the simulated core has executed them,
// accounting for preemption by interrupts and other threads.
func (t *Thread) Compute(instructions int64) {
	if d := t.m.instrTime(instructions); d > 0 {
		t.enter(opCompute, func(op *threadOp) { op.phase, op.timeout = opPoll, d })
	}
}

var noResult Result // what every call of a program returns at once; never written

// enter makes a call of kind k, fill writing its arguments into t.op in place.
// A Spawn thread's coroutine then parks once, until the kernel half (step) has
// filled in t.res; a program gets zero values at once. The calls of a program
// queue nothing, so a second in one Next panics.
func (t *Thread) enter(k opKind, fill func(*threadOp)) *Result {
	if t.op.kind != opNone {
		panic(fmt.Sprintf("kernel: %v made a second call in one Next", t))
	}
	t.op.kind = k
	fill(&t.op)
	c, ok := t.prog.(*coroutine)
	if !ok {
		return &noResult
	}
	if !c.yield(struct{}{}) {
		panic(killSentinel{})
	}
	return &t.res
}

// opKind names the kernel half of a call.
type opKind uint8

const (
	opNone opKind = iota
	opSleep
	opYield
	opEpollWait
	opUDPRecv
	opTCPSend
	opTCPRecv
	opAccept
	opConnect
	opBarrierWait
	opCompute // not a syscall: enters at opPoll
	// Calls whose effect follows the entry charge.
	opEpollCreate
	opEpollAdd
	opEpollDel
	opUDPSocket
	opListen
	opSendTo
	opClose // of op.udp, op.lis or op.tcp
	opAbort
)

// The phases of a call, in order.
const (
	opEnter uint8 = iota // charge the syscall entry cost
	opArm                // entry charged: report the span, arm the timeout record
	opPoll               // complete the call or block; re-entered after every wakeup
	opDone               // the completion charge (copy, epoll dispatch) is paid
)

// threadOp is one call in flight, all zero between calls. The calling thread
// fills in the arguments; Thread.step runs the kernel half in engine context
// and leaves the results in Thread.res. A call allocates nothing.
type threadOp struct {
	kind   opKind
	phase  uint8
	nowait bool // MSG_DONTWAIT / zero epoll timeout: never block
	timed  bool // timeout is a receive deadline, armed in opArm
	waited bool // the call gave up the CPU at least once
	fcntl  bool // opAccept: a separate fcntl(O_NONBLOCK) syscall comes first (no accept4)

	extra    int64        // entry instructions beyond Profile.SyscallInstr
	start    sim.Time     // entry instant, for OnSyscallSpan
	timeout  sim.Duration // opSleep, opCompute: how long; timed calls: how far off the deadline is
	deadline sim.Time
	n        int            // epoll: maxEvents; TCP: byte limit or bytes left to send; UDP: datagram bytes; listen: backlog; barrier: releasing generation
	remote   packet.Addr    // opConnect: the peer; opSendTo: the destination
	port     packet.Port    // opUDPSocket, opListen
	frag     int            // opSendTo: fragments built
	id       uint64         // opSendTo: the datagram's fragment ID (0: not counted yet)
	pkt      *packet.Packet // opSendTo: the fragment whose charge is being paid
	msg      packet.Msg     // opSendTo, opTCPSend: the message

	// The object the call is on, by kind.
	ep   *Epoll
	item *epollItem // EPOLL_CTL_DEL: the registration
	reg  epollItem  // EPOLL_CTL_ADD: the registration to make
	udp  *UDPSocket
	tcp  *TCPSocket // opConnect: the socket being connected
	lis  *TCPListener
	bar  *Barrier
}

// expired reports whether the call must return empty-handed rather than block
// (again). A deadline can only have passed after one block/wake cycle.
func (op *threadOp) expired(now sim.Time) bool {
	return op.nowait || op.timed && op.waited && now >= op.deadline
}

// step runs the kernel half of the call in flight as far as it goes without
// the CPU or an outside event, and reports whether the call has its result.
// resumeThread calls it at every instant the CPU is granted back.
func (t *Thread) step() bool {
	m, op := t.m, &t.op
	t.state = threadOnCPU
	for {
		switch op.phase {
		case opEnter:
			m.Stats.Syscalls++
			op.start = m.eng.Now()
			instr := m.cfg.Profile.SyscallInstr
			if !op.fcntl {
				instr += op.extra
			}
			t.remaining += m.instrTime(instr)
			op.phase = opArm
		case opArm:
			if m.OnSyscallSpan != nil {
				m.OnSyscallSpan(t.name, op.start, m.eng.Now().Sub(op.start))
			}
			if op.fcntl { // that was fcntl; the accept itself follows
				op.fcntl, op.phase = false, opEnter
				break
			}
			if op.timed {
				// A typed wake-if-still-blocked record plus a deadline comparison.
				// The record is not cancelled on early success: a stale one only
				// ever wakes a blocked thread, whose poll then blocks again. The
				// thread's records share a lane, so a stale one waiting behind an
				// earlier one costs a 24-byte node, not a queue slot.
				op.deadline = m.eng.Now().Add(op.timeout)
				m.eng.LaneAt(&t.timeouts, op.deadline, sim.Event{Kind: sim.EvThreadWakeBlocked, Tgt: t})
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
		if op.waited || m.runq.Len() == 0 {
			return nil, true
		}
		t.offCPU(threadRunnable)
		m.runq.Push(t)
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
	case opBarrierWait:
		return op.bar.pollWait(op)
	case opCompute:
		t.remaining += op.timeout
	case opEpollCreate:
		t.res.Epoll = &Epoll{m: m, items: make(map[Pollable]*epollItem)}
	case opEpollAdd:
		op.ep.add(op.reg)
	case opEpollDel:
		op.ep.del(op.item)
	case opUDPSocket:
		t.res.UDP, t.res.v.err = m.bindUDP(op.port)
	case opListen:
		t.res.Listener, t.res.v.err = m.listen(op.port, op.n)
	case opSendTo:
		return nil, op.udp.pollSend(t, op)
	case opClose:
		switch {
		case op.udp != nil:
			op.udp.close()
		case op.lis != nil:
			op.lis.close()
		default:
			op.tcp.conn.Close()
		}
	case opAbort:
		op.tcp.conn.Abort()
	}
	return nil, true
}

// Sleep blocks the thread for d of simulated time (nanosleep).
func (t *Thread) Sleep(d sim.Duration) {
	t.enter(opSleep, func(op *threadOp) { op.timeout = d })
}

// Yield gives up the CPU voluntarily (sched_yield).
func (t *Thread) Yield() {
	t.enter(opYield, func(*threadOp) {})
}

// Exit terminates a Spawn thread from within (fn simply returning is
// equivalent); a Program ends by returning false from Next.
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

// waitQueue is the threads blocked on a condition, oldest first. Waking one
// slides the rest down in place: the queues are short, and the block/wake
// cycle every request goes through allocates nothing in steady state.
type waitQueue struct {
	q     []*Thread
	first [1]*Thread // q's first backing array: one waiter is the common case
}

func (q *waitQueue) enqueue(t *Thread) {
	if q.q == nil {
		q.q = q.first[:0]
	}
	q.q = append(q.q, t)
}

// wakeOne wakes the oldest still-blocked waiter; reports whether one was
// woken. Stale entries (threads already woken by a timeout, or dead) are
// skipped so wakeups are never lost.
func (q *waitQueue) wakeOne(m *Machine) bool { return q.wakeOneOf(m, opNone) }

// wakeAll wakes every waiter.
func (q *waitQueue) wakeAll(m *Machine) { q.wakeAllOf(m, opNone) }

// wakeOneOf is wakeOne among the waiters blocked in a call of kind k (opNone:
// any). The others keep their places, so a queue shared by several kinds of
// call — a TCP socket's readers, writers and connectors — wakes each kind in
// its own arrival order.
func (q *waitQueue) wakeOneOf(m *Machine, k opKind) bool {
	for i := 0; i < len(q.q); {
		t := q.q[i]
		if t.state == threadBlocked && k != opNone && t.op.kind != k {
			i++
			continue
		}
		q.q = slices.Delete(q.q, i, i+1)
		if t.state == threadBlocked {
			m.wake(t)
			return true
		}
	}
	return false
}

// wakeAllOf wakes every waiter blocked in a call of kind k (opNone: any).
func (q *waitQueue) wakeAllOf(m *Machine, k opKind) {
	for q.wakeOneOf(m, k) {
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread(%s@n%d)", t.name, t.m.node)
}
