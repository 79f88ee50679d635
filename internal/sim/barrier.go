package sim

import (
	"sync"
	"sync/atomic"
)

// rendezvous is the quantum barrier: the one point per quantum at which the
// n workers meet. The last to arrive resets the count and bumps the
// generation, everyone else waits for the bump, so nothing is reset between
// quanta and millions of barriers allocate nothing. Everything a worker wrote
// before arriving is visible to every worker returning from await
// (release/acquire through the two atomics).
//
// A waiter spins on the generation for a bounded number of plain loads, then
// parks on the condition variable — and parks at once when a peer is still
// asleep from an earlier park, because that peer, once woken, may be queued
// behind this very goroutine: spinning for it would serialise the workers at
// one spin budget per quantum, where parking hands it the P. The spin never
// yields to the Go scheduler: the engine starts at most GOMAXPROCS workers, so
// a peer that is awake has a P to run on. The generation is bumped under the
// mutex, which makes the park race-free: a waiter that re-checks it while
// holding the lock cannot miss the wake-up.
type rendezvous struct {
	_       [64]byte
	n       int32
	arrived atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond
	// What the waiters spin on has a cache line to itself, so arrivals and
	// the lock do not take it away from them.
	_   [64]byte
	gen atomic.Uint32
	// asleep counts the workers that parked and are not running again yet.
	asleep atomic.Int32
	_      [56]byte
}

// barrierSpins bounds the spin, at 0.7 ns a probe, to a third of a
// millisecond. A park costs its peers a thread wake-up — tens of microseconds
// on a good day, over a millisecond on a busy virtual machine — so it pays
// only for a peer that is not merely late but not running, and the host's
// scheduler rarely takes a running thread away for less than this.
const barrierSpins = 1 << 19

func (r *rendezvous) init(n int) {
	r.n = int32(n)
	r.cond.L = &r.mu
}

// await blocks until all n workers have arrived and records in st how the
// wait resolved. The last arrival, and a lone worker, never wait.
func (r *rendezvous) await(st *BarrierStats) {
	if r.n == 1 {
		return
	}
	gen := r.gen.Load() // cannot advance before this worker arrives
	if r.arrived.Add(1) == r.n {
		r.arrived.Store(0)
		r.mu.Lock()
		r.gen.Add(1)
		r.mu.Unlock()
		r.cond.Broadcast()
		return
	}
	for i := 0; i < barrierSpins && r.asleep.Load() == 0; i++ {
		if r.gen.Load() != gen {
			st.SpinWakes++
			return
		}
	}
	r.asleep.Add(1)
	r.mu.Lock()
	for r.gen.Load() == gen {
		r.cond.Wait()
	}
	r.mu.Unlock()
	r.asleep.Add(-1)
	st.ParkWakes++
}
