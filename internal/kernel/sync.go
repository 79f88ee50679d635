package kernel

// Application-level synchronization (pthread-style). Because threads on a
// machine are cooperatively interleaved by the simulated scheduler, mutual
// exclusion is trivial; what a barrier models is the blocking and wakeup
// costs that real synchronization pays.

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
