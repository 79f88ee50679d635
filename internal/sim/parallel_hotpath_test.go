package sim

import (
	"runtime"
	"testing"
	"time"
)

// twoPartTraffic builds a 2-partition model in which every quantum carries
// exactly two cross-partition messages (one each way), so the barrier
// exchange path runs with a fixed per-quantum load.
func twoPartTraffic(workers int) *ParallelEngine {
	const q = Microsecond
	pe := NewParallelEngine(2, q)
	pe.SetWorkers(workers)
	for p := 0; p < 2; p++ {
		p := p
		part := pe.Partition(p)
		var tick func()
		tick = func() {
			part.After(q, tick)
			part.Send(1-p, part.Now().Add(q), func() {})
		}
		part.At(0, tick)
	}
	return pe
}

// TestBarrierExchangeAllocatesNothing pins the allocation-free barrier
// contract: once warmed, a quantum with cross traffic — mailboxes filled,
// emptied, merged and scheduled, the rendezvous crossed — allocates nothing,
// and the recycled buffers do not pin the payloads they carried. RunUntil
// itself allocates a few times per call (its WaitGroup, the goroutines it
// starts), so the bound is a handful per 400 quanta.
func TestBarrierExchangeAllocatesNothing(t *testing.T) {
	const quanta = 400
	check := func(pe *ParallelEngine) {
		t.Helper()
		for _, boxes := range pe.mail {
			for _, box := range boxes {
				for _, m := range box.msgs[:cap(box.msgs)] {
					if m.ev.Tgt != nil || m.ev.Ref != nil {
						t.Fatal("mailbox retains a delivered payload")
					}
				}
			}
		}
		for _, w := range pe.workers {
			for _, m := range w.inbox[:cap(w.inbox)] {
				if m.ev.Tgt != nil || m.ev.Ref != nil {
					t.Fatal("merge buffer retains a delivered payload")
				}
			}
		}
	}

	pe := twoPartTraffic(1)
	pe.RunUntil(Time(50 * Microsecond)) // warm up ~50 quanta
	got := testing.AllocsPerRun(5, func() { pe.RunUntil(pe.Now() + Time(quanta*Microsecond)) })
	if got > 4 {
		t.Errorf("1 worker: %v allocations in %d steady-state quanta, want none per quantum", got, quanta)
	}
	check(pe)

	// AllocsPerRun pins GOMAXPROCS to 1, which would starve a second worker,
	// so two workers are counted by hand; the slack is for whatever else
	// the test binary allocates meanwhile.
	pe = twoPartTraffic(2)
	pe.RunUntil(Time(50 * Microsecond))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pe.RunUntil(pe.Now() + Time(quanta*Microsecond))
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > quanta/10 {
		t.Errorf("2 workers: %d allocations in %d steady-state quanta, want none per quantum", got, quanta)
	}
	check(pe)
}

// TestBarrierWorkerResultsMatchInline runs the fixed-traffic model inline and
// under the spin-then-park worker barrier and requires identical end state —
// a focused version of the ring invariance test aimed at the barrier itself.
func TestBarrierWorkerResultsMatchInline(t *testing.T) {
	deadline := Time(300 * Microsecond)
	want := twoPartTraffic(1)
	want.RunUntil(deadline)
	got := twoPartTraffic(2)
	got.RunUntil(deadline)
	if got.Executed != want.Executed {
		t.Fatalf("workers=2 executed %d events, inline %d", got.Executed, want.Executed)
	}
	if got.Now() != want.Now() {
		t.Fatalf("workers=2 clock %v, inline %v", got.Now(), want.Now())
	}
	for p := 0; p < 2; p++ {
		if g, w := got.Partition(p).Now(), want.Partition(p).Now(); g != w {
			t.Fatalf("partition %d clock %v, inline %v", p, g, w)
		}
	}
}

// TestBarrierPoolReusableAcrossRuns drives several RunUntil segments on one
// engine so the pool is created and torn down repeatedly around a persistent
// model, covering the shutdown path of the spin-then-park gate.
func TestBarrierPoolReusableAcrossRuns(t *testing.T) {
	pe := twoPartTraffic(2)
	var last Time
	for seg := 1; seg <= 5; seg++ {
		deadline := Time(seg) * Time(40*Microsecond)
		pe.RunUntil(deadline)
		if pe.Now() != deadline {
			t.Fatalf("segment %d stopped at %v, want %v", seg, pe.Now(), deadline)
		}
		if pe.Now() <= last && seg > 1 {
			t.Fatalf("clock did not advance across segments: %v", pe.Now())
		}
		last = pe.Now()
	}
}

// TestRendezvous exercises the barrier directly: nobody leaves before the
// last arrival, whether the waiter is still spinning or — with the last
// arrival held back ever longer, until it happens — has parked, and each
// round counts exactly one wait.
func TestRendezvous(t *testing.T) {
	var r rendezvous
	r.init(2)
	var peer, mine BarrierStats
	rounds := uint64(0)
	for hold := time.Duration(0); peer.ParkWakes == 0; hold = 4*hold + time.Millisecond {
		if hold > 10*time.Second {
			t.Fatal("a waiter held back for seconds never parked")
		}
		rounds++
		released := make(chan struct{})
		go func() {
			r.await(&peer)
			close(released)
		}()
		if hold > 0 {
			for r.arrived.Load() == 0 {
				time.Sleep(10 * time.Microsecond)
			}
			time.Sleep(hold)
			select {
			case <-released:
				t.Fatal("a waiter left the rendezvous before the last arrival")
			default:
			}
		}
		r.await(&mine)
		<-released
	}
	if got := peer.SpinWakes + peer.ParkWakes + mine.SpinWakes + mine.ParkWakes; got != rounds {
		t.Fatalf("%d rounds of one waiter each counted %d waits", rounds, got)
	}
}
