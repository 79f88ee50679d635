package sim

import (
	"fmt"
	"slices"
	"testing"
)

// chatter builds an n-partition model with both local and cross traffic in
// every quantum: each partition ticks every 400 ns and sends its tick count
// to the next partition, two quanta ahead. It returns the engine and the
// per-partition logs of everything that ran there; a log is only ever
// appended to from its own partition's events.
func chatter(n, workers int) (*ParallelEngine, [][]string) {
	const q = Microsecond
	pe := NewParallelEngine(n, q)
	pe.SetWorkers(workers)
	logs := make([][]string, n)
	for p := 0; p < n; p++ {
		part, next := pe.Partition(p), (p+1)%n
		ticks := 0
		var tick func()
		tick = func() {
			ticks++
			logs[p] = append(logs[p], fmt.Sprintf("tick %d at %v", ticks, part.Now()))
			part.After(400*Nanosecond, tick)
			from, seq := p, ticks
			part.Send(next, part.Now().Add(2*q), func() {
				logs[next] = append(logs[next], fmt.Sprintf("msg %d from %d at %v", seq, from, pe.Partition(next).Now()))
			})
		}
		part.At(Time(p)*Time(100*Nanosecond), tick)
	}
	return pe, logs
}

// TestHaltFromSpawnedWorker halts from the last partition, which the last
// worker owns — a spawned goroutine whenever there is more than one. Every
// partition must stop at the same grid boundary, the messages sent in the
// halting quantum must already be in their destination queues, and resuming
// must reach exactly the state of a run that was never halted.
func TestHaltFromSpawnedWorker(t *testing.T) {
	const n = 6
	deadline := Time(40 * Microsecond)
	want, wantLogs := chatter(n, 1)
	want.RunUntil(deadline)
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			pe, logs := chatter(n, workers)
			last := pe.Partition(n - 1)
			last.At(Time(10300*Nanosecond), pe.Halt)
			pe.RunUntil(deadline)
			boundary := Time(11 * Microsecond)
			if pe.Now() != boundary {
				t.Fatalf("halted at %v, want the enclosing boundary %v", pe.Now(), boundary)
			}
			for p := 0; p < n; p++ {
				if got := pe.Partition(p).Now(); got != boundary {
					t.Errorf("partition %d stopped at %v, want %v", p, got, boundary)
				}
			}
			// Partition 0's ticks from 9.2 to 10.8 µs each sent partition 1 a
			// message due after the boundary, the last three of them in the
			// halting quantum; partition 1's own next tick makes six.
			if got := pe.Partition(1).Pending(); got != 6 {
				t.Errorf("partition 1 holds %d events at the halt, want 6", got)
			}
			for _, boxes := range pe.mail {
				for i, box := range boxes {
					if len(box.msgs) != 0 {
						t.Errorf("mailbox %d still holds %d messages after RunUntil returned", i, len(box.msgs))
					}
				}
			}
			pe.RunUntil(deadline)
			if pe.Now() != want.Now() || pe.Executed != want.Executed+1 { // +1: the halt event itself
				t.Fatalf("resumed run ended at %v after %d events, unhalted run at %v after %d",
					pe.Now(), pe.Executed, want.Now(), want.Executed)
			}
			for p := range logs {
				if !slices.Equal(logs[p], wantLogs[p]) {
					t.Fatalf("partition %d log differs from the unhalted run's:\n got %v\nwant %v", p, logs[p], wantLogs[p])
				}
			}
		})
	}
}

// TestMessageAcrossSkippedWindow sends, in quantum k, a message due inside
// quantum k+2 while nothing at all is due in quantum k+1, so the earliest-event
// jump skips that window. The message must still be in its queue in time and
// dispatch in timestamp order with the receiver's own events.
func TestMessageAcrossSkippedWindow(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pe := NewParallelEngine(2, Microsecond)
		pe.SetWorkers(workers)
		pe.EnableIntrospection()
		var order []string
		p0, p1 := pe.Partition(0), pe.Partition(1)
		p0.At(Time(300*Nanosecond), func() { // quantum (0, 1µs]
			p0.Send(1, Time(2500*Nanosecond), func() { order = append(order, "msg@2.5") })
			p0.Send(1, Time(2200*Nanosecond), func() { order = append(order, "msg@2.2") })
		})
		p1.At(Time(2400*Nanosecond), func() { order = append(order, "local@2.4") })
		p1.At(Time(2600*Nanosecond), func() { order = append(order, "local@2.6") })
		pe.RunUntil(Time(5 * Microsecond))
		if want := []string{"msg@2.2", "local@2.4", "msg@2.5", "local@2.6"}; !slices.Equal(order, want) {
			t.Fatalf("workers=%d: dispatched %v, want %v", workers, order, want)
		}
		if got := pe.Introspection().Quanta; got != 2 {
			t.Fatalf("workers=%d: ran %d quanta, want 2 (the empty window (1µs, 2µs] skipped)", workers, got)
		}
	}
}

// TestWorkerPanicSurfacesOnCaller panics in an event of the last partition,
// which at two workers runs on the spawned goroutine. The panic must come out
// of RunUntil on the caller with its value, as it does from a sequential run,
// and must leave no worker waiting at the rendezvous.
func TestWorkerPanicSurfacesOnCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		pe := twoPartTraffic(workers)
		pe.Partition(1).At(Time(7300*Nanosecond), func() { panic("app bug") })
		func() {
			defer func() {
				if r := recover(); r != "app bug" {
					t.Errorf("workers=%d: RunUntil panicked with %v, want the handler's value", workers, r)
				}
			}()
			pe.RunUntil(Time(50 * Microsecond))
			t.Errorf("workers=%d: RunUntil returned normally", workers)
		}()
		if workers == 1 {
			continue
		}
		// Peers left through the rendezvous: nobody has arrived and not left.
		if got := pe.gate.arrived.Load(); got != 0 {
			t.Errorf("%d workers still counted at the rendezvous", got)
		}
		// RunUntil joins its goroutines before re-raising, so the engine can
		// be driven again (the panicking event is gone).
		pe.RunUntil(Time(50 * Microsecond))
		if pe.Now() != Time(50*Microsecond) {
			t.Errorf("engine stuck at %v after the panic", pe.Now())
		}
	}
}
