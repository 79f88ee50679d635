package sim

import (
	"testing"
	"time"
)

func TestStep(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.At(Time(Microsecond), func() { fired = append(fired, 1) })
	id := e.At(Time(2*Microsecond), func() { fired = append(fired, 2) })
	e.At(Time(3*Microsecond), func() { fired = append(fired, 3) })
	e.Cancel(id)

	if !e.Step() {
		t.Fatal("first step found nothing")
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v", fired)
	}
	if !e.Step() {
		t.Fatal("second step found nothing")
	}
	if len(fired) != 2 || fired[1] != 3 {
		t.Fatalf("cancelled event executed: %v", fired)
	}
	if e.Step() {
		t.Fatal("step on empty queue reported work")
	}
}

func TestNextEventTimeSkipsCancelled(t *testing.T) {
	e := NewEngine()
	id := e.At(Time(Microsecond), func() {})
	e.At(Time(5*Microsecond), func() {})
	e.Cancel(id)
	if got := e.NextEventTime(); got != Time(5*Microsecond) {
		t.Fatalf("next event = %v, want 5us", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after lazily dropping cancelled head", e.Pending())
	}
}

func TestHaltFreezesClock(t *testing.T) {
	e := NewEngine()
	e.At(Time(Microsecond), func() { e.Halt() })
	e.At(Time(Second), func() {})
	e.RunUntil(Time(2 * Second))
	if e.Now() != Time(Microsecond) {
		t.Fatalf("halted clock at %v, want 1us", e.Now())
	}
}

func TestStdConversions(t *testing.T) {
	d := 1500 * Nanosecond
	if d.Std() != 1500*time.Nanosecond {
		t.Fatalf("Std = %v", d.Std())
	}
	if FromStd(2*time.Microsecond) != 2*Microsecond {
		t.Fatalf("FromStd = %v", FromStd(2*time.Microsecond))
	}
}

func TestRandFork(t *testing.T) {
	a := NewRand(5)
	child1 := a.Fork("x")
	b := NewRand(5)
	child2 := b.Fork("x")
	for i := 0; i < 100; i++ {
		if child1.Uint64() != child2.Uint64() {
			t.Fatal("forks of identical parents diverged")
		}
	}
	c := NewRand(5)
	other := c.Fork("y")
	if other.Uint64() == NewRand(5).Fork("x").Uint64() {
		t.Fatal("differently labeled forks should differ")
	}
}
