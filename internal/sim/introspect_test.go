package sim

import (
	"runtime"
	"testing"
)

// TestQueueStatsTiers checks that QueueStats reports occupancy per tier:
// imminent events land in the near run (or level 0), distant ones in the
// upper levels, and the sum always matches Pending.
func TestQueueStatsTiers(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.At(Time(i)*Time(Microsecond), func() {})
	}
	for i := 0; i < 5; i++ {
		e.At(Time(10)*Time(Second)+Time(i), func() {})
	}
	qs := e.QueueStats()
	if qs.Total() != e.Pending() {
		t.Fatalf("Total()=%d, Pending()=%d", qs.Total(), e.Pending())
	}
	if qs.Near+qs.Wheel+qs.Far != 13 {
		t.Fatalf("13 events queued, stats report %+v", qs)
	}
	// The first dispatch moves the wheel window to the earliest event; the
	// imminent events then occupy the near run / level 0 while the 10 s
	// events stay in an upper level.
	e.Step()
	qs = e.QueueStats()
	if qs.Near+qs.Wheel == 0 {
		t.Fatalf("imminent events should occupy near run or wheel after a pop: %+v", qs)
	}
	if qs.Far == 0 {
		t.Fatalf("events 10s out should occupy an upper level: %+v", qs)
	}
	if qs.Total() != e.Pending() {
		t.Fatalf("after a pop Total()=%d, Pending()=%d", qs.Total(), e.Pending())
	}
	e.Run()
	if got := e.QueueStats().Total(); got != 0 {
		t.Fatalf("drained engine reports %d queued events", got)
	}
	if e.Executed != 13 {
		t.Fatalf("Executed=%d, want 13", e.Executed)
	}
}

// runIntrospectedPing runs the two-partition ping model with introspection
// enabled at a given worker count and returns the deterministic snapshot
// parts.
func runIntrospectedPing(t *testing.T, workers int) EngineIntrospection {
	t.Helper()
	latency := 2 * Microsecond
	const hops = 50
	pe := NewParallelEngine(2, latency)
	pe.SetWorkers(workers)
	pe.EnableIntrospection()
	var send func(part, hop int)
	send = func(part, hop int) {
		if hop >= hops {
			return
		}
		next := 1 - part
		pe.Send(part, next, pe.Partition(part).Now().Add(latency), func() { send(next, hop+1) })
	}
	pe.Partition(0).At(0, func() { send(0, 0) })
	pe.RunUntil(Time(Duration(hops+2) * latency))
	return pe.Introspection()
}

// TestIntrospectionDeterministicAcrossWorkers checks the deterministic parts
// of the snapshot — quantum count, per-partition executed events and busy
// quanta — are identical at 1 and 2 workers. Barrier wake counters are
// explicitly excluded (OS-scheduling dependent).
func TestIntrospectionDeterministicAcrossWorkers(t *testing.T) {
	a := runIntrospectedPing(t, 1)
	b := runIntrospectedPing(t, 2)
	if a.Quanta == 0 {
		t.Fatal("no quanta recorded")
	}
	if a.Quanta != b.Quanta {
		t.Fatalf("quanta differ: %d vs %d", a.Quanta, b.Quanta)
	}
	if len(a.Partitions) != 2 || len(b.Partitions) != 2 {
		t.Fatalf("partition stats missing: %d vs %d", len(a.Partitions), len(b.Partitions))
	}
	for i := range a.Partitions {
		pa, pb := a.Partitions[i], b.Partitions[i]
		if pa.Executed != pb.Executed || pa.BusyQuanta != pb.BusyQuanta {
			t.Fatalf("partition %d stats differ: %+v vs %+v", i, pa, pb)
		}
		if pa.Executed == 0 {
			t.Fatalf("partition %d executed nothing", i)
		}
		if u := pa.Utilization(a.Quanta); u <= 0 || u > 1 {
			t.Fatalf("partition %d utilization out of range: %v", i, u)
		}
	}
}

// TestIntrospectionDisabledIsZero checks the zero snapshot when
// introspection was never enabled, and that barrier wakes are counted when
// it is (presence only — the split is nondeterministic).
func TestIntrospectionDisabledIsZero(t *testing.T) {
	pe := NewParallelEngine(2, Microsecond)
	pe.Partition(0).At(0, func() {})
	pe.RunUntil(Time(10 * Microsecond))
	got := pe.Introspection()
	if got.Quanta != 0 || got.Partitions != nil {
		t.Fatalf("disabled introspection returned data: %+v", got)
	}
}

// TestBarrierWakesCounted checks that with introspection on and 2 live
// workers, await resolutions are counted (as either spin or park wakes).
func TestBarrierWakesCounted(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the worker count is clamped to GOMAXPROCS: one worker never waits")
	}
	in := runIntrospectedPing(t, 2)
	if in.Barrier.SpinWakes+in.Barrier.ParkWakes == 0 {
		t.Fatal("no barrier wakes recorded with 2 workers")
	}
}

// TestUtilizationZeroQuanta covers the divide guard.
func TestUtilizationZeroQuanta(t *testing.T) {
	s := PartitionStats{BusyQuanta: 5}
	if got := s.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0)=%v, want 0", got)
	}
}
