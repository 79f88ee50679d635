// Spin-then-park rendezvous workers, the shape internal/sim's parallel engine
// uses: detlint must flag the goroutine spawn unless it carries the
// //simlint:allow annotation the engine's sanctioned workers use. The
// barrier body itself (atomics, a bounded pure spin, cond waits) is not a
// finding — only the unannotated go statement is.
package fixture

import (
	"sync"
	"sync/atomic"
)

type rendezvous struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32
	asleep  atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
}

func (r *rendezvous) await() {
	gen := r.gen.Load()
	if r.arrived.Add(1) == r.n {
		r.arrived.Store(0)
		r.mu.Lock()
		r.gen.Add(1)
		r.mu.Unlock()
		r.cond.Broadcast()
		return
	}
	for i := 0; i < 1<<19 && r.asleep.Load() == 0; i++ {
		if r.gen.Load() != gen {
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
}

// work is one worker's run: a fixed number of quanta, one rendezvous each.
func (r *rendezvous) work(quanta int, done *sync.WaitGroup) {
	defer done.Done()
	for q := 0; q < quanta; q++ {
		r.await()
	}
}

func newRendezvous(workers int) *rendezvous {
	r := &rendezvous{n: int32(workers)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// rogueRun is a copy of the engine's run without the sanctioning annotation:
// the caller is worker 0 and spawns the rest, and the spawn must fire.
func rogueRun(workers, quanta int) {
	r := newRendezvous(workers)
	var done sync.WaitGroup
	for w := 1; w < workers; w++ {
		done.Add(1)
		go r.work(quanta, &done) // want `go statement in model code`
	}
	done.Add(1)
	r.work(quanta, &done)
	done.Wait()
}

// sanctionedRun is the identical spawn carrying the engine-owned annotation;
// no finding.
func sanctionedRun(workers, quanta int) {
	r := newRendezvous(workers)
	var done sync.WaitGroup
	for w := 1; w < workers; w++ {
		done.Add(1)
		go r.work(quanta, &done) //simlint:allow detlint fixture: engine-owned workers, one rendezvous per quantum, joined before return
	}
	done.Add(1)
	r.work(quanta, &done)
	done.Wait()
}
