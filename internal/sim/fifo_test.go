package sim

import "testing"

// TestFIFONeverDrainedAllocatesNothing keeps a FIFO between 3 and 4 items for
// 10,000 push/pop cycles: it never drains, yet once warm it reuses its array
// and pops in push order. The kernel's queues, the switch's output queues and
// the NIC's descriptor rings are all FIFOs.
func TestFIFONeverDrainedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	var buf [4]int
	zero, seeded := FIFO[int]{}, FIFOOn(buf[:])
	for _, c := range []struct {
		name string
		f    *FIFO[int]
	}{{"zero", &zero}, {"seeded", &seeded}} {
		name, f := c.name, c.f
		next, want := 0, 0
		for ; next < 3; next++ {
			f.Push(next)
		}
		cycles := func() {
			for range 10_000 {
				f.Push(next)
				next++
				if got := f.Pop(); got != want {
					t.Fatalf("%s: popped %d, want %d", name, got, want)
				}
				want++
			}
		}
		if n := testing.AllocsPerRun(1, cycles); n != 0 {
			t.Fatalf("%s: 10,000 push/pop cycles allocated %v objects, want 0", name, n)
		}
		if got := f.Live(); len(got) != 3 || got[0] != want || *f.Head() != want {
			t.Fatalf("%s: live %v, want 3 items from %d", name, got, want)
		}
	}
}
