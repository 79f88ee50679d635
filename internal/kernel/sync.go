package kernel

// Application-level synchronization primitives (pthread-style). Because
// threads on a machine are cooperatively interleaved by the simulated
// scheduler, mutual exclusion is trivial; what these primitives model is the
// blocking, wakeup and syscall (futex) costs that real synchronization pays.

// Cond is a condition variable for threads of one machine.
type Cond struct {
	m  *Machine
	wq waitQueue
}

// NewCond creates a condition variable on machine m.
func NewCond(m *Machine) *Cond { return &Cond{m: m} }

// Wait blocks t until Signal or Broadcast. As with pthreads, the caller must
// re-check its predicate on wakeup.
func (c *Cond) Wait(t *Thread) {
	t.enter(opCondWait, func(op *threadOp) { op.cond = c }) // futex wait: block once
}

// Signal wakes one waiter. Unlike Wait it is callable from any context
// (thread or event); a thread pays the futex wake syscall first.
func (c *Cond) Signal(t *Thread) {
	if t == nil {
		c.wq.wakeOne(c.m)
		return
	}
	t.enter(opSignal, func(op *threadOp) { op.cond = c })
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	if t == nil {
		c.wq.wakeAll(c.m)
		return
	}
	t.enter(opBroadcast, func(op *threadOp) { op.cond = c })
}

// Barrier is a reusable pthread_barrier for n participants.
type Barrier struct {
	m     *Machine
	n     int
	count int
	gen   int
	wq    waitQueue
}

// NewBarrier creates a barrier for n threads on machine m.
func NewBarrier(m *Machine, n int) *Barrier { return &Barrier{m: m, n: n} }

// Wait blocks until n threads have arrived; the last arrival releases all.
func (b *Barrier) Wait(t *Thread) {
	t.enter(opBarrierWait, func(op *threadOp) { op.bar = b })
}

func (b *Barrier) pollWait(op *threadOp) (*waitQueue, bool) {
	if op.n == 0 { // arrival
		op.n = b.gen + 1 // the generation that releases this thread
		if b.count++; b.count == b.n {
			b.count = 0
			b.gen++
			b.wq.wakeAll(b.m)
		}
	}
	if b.gen < op.n {
		return &b.wq, false
	}
	return nil, true
}

// WaitGroup counts completions (sync.WaitGroup-style).
type WaitGroup struct {
	m     *Machine
	count int
	wq    waitQueue
}

// NewWaitGroup creates a waitgroup on machine m.
func NewWaitGroup(m *Machine) *WaitGroup { return &WaitGroup{m: m} }

// Add increases the counter.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter, waking waiters at zero. Callable from thread
// or event context.
func (w *WaitGroup) Done() {
	w.count--
	if w.count <= 0 {
		w.wq.wakeAll(w.m)
	}
}

// Wait blocks t until the counter reaches zero.
func (w *WaitGroup) Wait(t *Thread) {
	t.enter(opWaitGroup, func(op *threadOp) { op.phase, op.wg = opPoll, w })
}
