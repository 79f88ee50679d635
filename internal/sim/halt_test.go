package sim

import (
	"slices"
	"testing"
)

// Halt takes effect at the quantum barrier, and the barrier grid is the same
// whether the partitions share one queue or run under the exchange — so every
// case below must come out identically in both modes.
func haltModes(t *testing.T, body func(t *testing.T, pe *ParallelEngine)) {
	for _, mode := range []struct {
		name  string
		share bool
	}{{"shared", true}, {"partitioned", false}} {
		t.Run(mode.name, func(t *testing.T) {
			pe := NewParallelEngine(2, Microsecond)
			if mode.share {
				pe.ShareQueue()
			}
			body(t, pe)
		})
	}
}

// A halt completes the barrier instant: every event with a timestamp <= the
// barrier still runs (including chains spawned at that instant), the clock
// freezes exactly there, and later events stay queued for the next run.
func TestHaltCompletesBarrierInstant(t *testing.T) {
	haltModes(t, func(t *testing.T, pe *ParallelEngine) {
		p0, p1 := pe.Partition(0), pe.Partition(1)
		var fired []int
		p0.At(Time(400*Nanosecond), func() { fired = append(fired, 1); pe.Halt() })
		p1.At(Time(Microsecond), func() {
			fired = append(fired, 2)
			p1.At(Time(Microsecond), func() { fired = append(fired, 22) })
		})
		p0.At(Time(1500*Nanosecond), func() { fired = append(fired, 3) })
		pe.RunUntil(Never)
		if want := []int{1, 2, 22}; !slices.Equal(fired, want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
		if pe.Now() != Time(Microsecond) || pe.Executed != 3 {
			t.Fatalf("stopped at %v after %d events, want 1µs after 3", pe.Now(), pe.Executed)
		}
		pe.RunUntil(Time(2 * Microsecond)) // the halt is one-shot
		if want := []int{1, 2, 22, 3}; !slices.Equal(fired, want) {
			t.Fatalf("resumed run fired %v, want %v", fired, want)
		}
	})
}

// A queue that drains inside the halting quantum still stops on the grid,
// not at the deadline.
func TestHaltDrainedQueueStopsOnGrid(t *testing.T) {
	haltModes(t, func(t *testing.T, pe *ParallelEngine) {
		pe.Partition(1).At(Time(2400*Nanosecond), pe.Halt)
		pe.RunUntil(Time(20 * Microsecond))
		if pe.Now() != Time(3*Microsecond) {
			t.Fatalf("drained run stopped at %v, want 3µs", pe.Now())
		}
	})
}

// A deadline inside the halting quantum cuts it short: the run ends at the
// deadline and events past it stay queued.
func TestHaltDeadlineCutsQuantum(t *testing.T) {
	haltModes(t, func(t *testing.T, pe *ParallelEngine) {
		ran := 0
		p := pe.Partition(0)
		p.At(Time(1200*Nanosecond), func() { ran++; pe.Halt() })
		p.At(Time(1400*Nanosecond), func() { ran++ })
		p.At(Time(1800*Nanosecond), func() { ran++ })
		pe.RunUntil(Time(1500 * Nanosecond))
		if ran != 2 || pe.Now() != Time(1500*Nanosecond) {
			t.Fatalf("ran %d, stopped at %v; want 2 at 1.5µs", ran, pe.Now())
		}
	})
}

// A halt from an event exactly on a barrier stops at that barrier: the clock
// neither runs on to the next one nor regresses.
func TestHaltOnBarrierStopsThere(t *testing.T) {
	haltModes(t, func(t *testing.T, pe *ParallelEngine) {
		ran := 0
		p := pe.Partition(1)
		p.At(Time(3*Microsecond), func() { ran++; pe.Halt() })
		p.At(Time(3500*Nanosecond), func() { ran++ })
		pe.RunUntil(Never)
		if ran != 1 || pe.Now() != Time(3*Microsecond) {
			t.Fatalf("ran %d, stopped at %v; want 1 at 3µs", ran, pe.Now())
		}
	})
}
