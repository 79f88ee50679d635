package sim

import "testing"

// Edge-case behavior of the sequential engine's introspection and halt
// surface. The schedlint fixture mirrors these call patterns as known-good
// test code (internal/analysis/testdata/src/schedlint/engine_edge_test.go).

func TestEmptyEngineEdgeCases(t *testing.T) {
	e := NewEngine()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending on empty engine = %d, want 0", got)
	}
	if got := e.NextEventTime(); got != Never {
		t.Fatalf("NextEventTime on empty engine = %v, want Never", got)
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported a dispatch")
	}
	e.Run()
	if got := e.Now(); got != 0 {
		t.Fatalf("Run on empty engine moved the clock to %v", got)
	}
	// A bounded run over an empty queue still advances time to the deadline:
	// quiet periods pass even when nothing happens in them.
	deadline := Time(5 * Microsecond)
	e.RunUntil(deadline)
	if got := e.Now(); got != deadline {
		t.Fatalf("RunUntil on empty engine left the clock at %v, want %v", got, deadline)
	}
}

func TestPendingAndNextEventTimeWithCancellations(t *testing.T) {
	e := NewEngine()
	e.At(0, func() {})
	e.Step() // opens the wheel window, so the next two events queue inside it
	first := e.At(Time(Nanosecond), func() {})
	e.At(Time(2*Nanosecond), func() {})
	far := e.At(Time(Second), func() {})
	e.Cancel(first)
	e.Cancel(far) // beyond the window: unlinked and freed by Cancel itself
	// Pending counts cancelled-but-unpopped events inside the window: it
	// reports queue size, not liveness.
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (cancelled event still queued)", got)
	}
	// NextEventTime skips (and pops) the cancelled head to report the first
	// live timestamp.
	if got := e.NextEventTime(); got != Time(2*Nanosecond) {
		t.Fatalf("NextEventTime = %v, want %v", got, Time(2*Nanosecond))
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after NextEventTime = %d, want 1 (cancelled head popped)", got)
	}
	// Cancelling the zero EventID and a fired ID are no-ops.
	e.Cancel(EventID{})
	e.Run()
	if got := e.NextEventTime(); got != Never {
		t.Fatalf("NextEventTime after drain = %v, want Never", got)
	}
}

func TestHaltFreezesClockAndRunResumes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(Time(Nanosecond), func() {
		fired = append(fired, e.Now())
		e.Halt()
	})
	e.At(Time(Microsecond), func() { fired = append(fired, e.Now()) })
	e.RunUntil(Time(Second))
	// Halt freezes the clock at the last dispatched event (no deadline
	// fast-forward) and leaves the rest of the queue intact.
	if got := e.Now(); got != Time(Nanosecond) {
		t.Fatalf("Now after Halt = %v, want %v", got, Time(Nanosecond))
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after Halt = %d, want 1", got)
	}
	if got := e.NextEventTime(); got != Time(Microsecond) {
		t.Fatalf("NextEventTime after Halt = %v, want %v", got, Time(Microsecond))
	}
	// A fresh Run clears the halted flag and drains the remainder.
	e.Run()
	if len(fired) != 2 || fired[1] != Time(Microsecond) {
		t.Fatalf("fired = %v, want two events ending at %v", fired, Time(Microsecond))
	}
	if got := e.NextEventTime(); got != Never {
		t.Fatalf("NextEventTime after resume = %v, want Never", got)
	}
}

func TestStepIgnoresHalt(t *testing.T) {
	e := NewEngine()
	e.At(0, func() { e.Halt() })
	e.At(Time(Nanosecond), func() {})
	e.Run()
	// Step is single-event dispatch: it proceeds even after a Halt stopped
	// the run loop.
	if !e.Step() {
		t.Fatal("Step after Halt did not dispatch the next event")
	}
	if e.Step() {
		t.Fatal("Step on a drained engine reported a dispatch")
	}
}
