package sim

import (
	"slices"
	"testing"
)

// On a shared queue a cross-partition send is just an event: it takes its
// place in the one (time, schedule-order) sequence at send time, is still
// held to the lookahead rule, and dispatches through the shared table, which
// a partition handle can re-register. The engines it no longer uses are
// released.
func TestShareQueueCrossSend(t *testing.T) {
	pe := NewParallelEngine(3, Microsecond)
	pe.ShareQueue()
	if all := pe.engines[:cap(pe.engines)]; slices.ContainsFunc(all[1:], func(e *Engine) bool { return e != nil }) {
		t.Fatal("the discarded engines stay reachable from the shared one's slice")
	}
	var order []int
	pe.RegisterHandler(EvAppTick, func(Time, Event) { t.Fatal("replaced handler ran") })
	pe.Partition(2).RegisterHandler(EvAppTick, func(_ Time, ev Event) { order = append(order, int(ev.Arg)) })
	at := Time(1500 * Nanosecond)
	pe.Partition(0).At(0, func() {
		pe.Cross(0, 1).AtEvent(at, Event{Kind: EvAppTick, Arg: 1})
		pe.Partition(2).AtEvent(at, Event{Kind: EvAppTick, Arg: 2})
		pe.Partition(0).Send(1, at, func() { order = append(order, 3) })
	})
	pe.Partition(1).At(Time(1200*Nanosecond), func() {
		defer func() {
			if recover() == nil {
				t.Error("send inside the executing quantum did not panic")
			}
		}()
		pe.SendEvent(1, 0, Time(1900*Nanosecond), Event{Kind: EvAppTick})
	})
	pe.RunUntil(Time(2 * Microsecond))
	if want := []int{1, 2, 3}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v, want schedule order %v", order, want)
	}
	if pe.Executed != 5 || pe.Partition(1).Executed() != 5 {
		t.Fatalf("executed %d (partition view %d), want 5 on the one queue", pe.Executed, pe.Partition(1).Executed())
	}
}

// A one-partition engine has no barrier: Halt stops after the current event
// and the clock stays at it, exactly as on a plain Engine.
func TestOnePartitionEngineHaltsImmediately(t *testing.T) {
	pe := NewParallelEngine(1, Microsecond)
	p := pe.Partition(0)
	ran := 0
	p.At(Time(400*Nanosecond), func() { ran++; pe.Halt() })
	p.At(Time(600*Nanosecond), func() { ran++ })
	pe.RunUntil(Time(10 * Microsecond))
	if ran != 1 || pe.Now() != Time(400*Nanosecond) || pe.Executed != 1 {
		t.Fatalf("ran %d, stopped at %v, executed %d; want 1 at 400ns", ran, pe.Now(), pe.Executed)
	}
	pe.RunUntil(Time(10 * Microsecond))
	if ran != 2 || pe.Now() != Time(10*Microsecond) {
		t.Fatalf("resumed run: ran %d, now %v; want 2 at the 10µs deadline", ran, pe.Now())
	}
}
