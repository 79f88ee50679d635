package vswitch

import (
	"fmt"
	"testing"

	"diablo/internal/sim"
)

// refArbitrate is the linear reference scan the bitmap arbiter replaced: every
// input from the round-robin pointer on, empty or not.
func refArbitrate(op *outPort, now sim.Time) (int, sim.Time) {
	next := sim.Never
	n := len(op.voq)
	for k := 0; k < n; k++ {
		i := (op.rr + k) % n
		r := &op.voq[i]
		if r.Len() == 0 {
			continue
		}
		h := r.Head()
		if h.eligible <= now {
			return i, next
		}
		if h.eligible < next {
			next = h.eligible
		}
	}
	return -1, next
}

// TestBitmapArbiterMatchesLinearScan drives switches of several widths — one
// word of backlog bitmap, exactly one, and more than one — with randomized
// arrivals converging on a few outputs, and after every event compares the
// bitmap arbiter's decision with the linear scan's on every output port's
// state. The decision is a pure function of that state, so agreeing on every
// reachable state is agreeing on the whole input sequence.
func TestBitmapArbiterMatchesLinearScan(t *testing.T) {
	for _, ports := range []int{5, 64, 70, 130} {
		t.Run(fmt.Sprintf("%dports", ports), func(t *testing.T) {
			params := Gigabit1GShallow("arb", ports)
			params.BufferPerPort = 64 * 1024 // deep: keep the frames queued, not dropped
			// Store-and-forward with a long fabric delay: queues then hold
			// mature and immature heads side by side.
			params.CutThrough = false
			params.PortLatency = 5 * sim.Microsecond
			r := newRig(t, params)
			rng := sim.NewRand(sim.DeriveSeed(uint64(ports), "bitmap-arbiter"))
			hot := []int{0, ports / 2, ports - 1}
			for n := 0; n < 40*ports; n++ {
				at := sim.Time(rng.Intn(int(2 * sim.Millisecond)))
				dst := hot[rng.Intn(len(hot))]
				if rng.Intn(8) == 0 {
					dst = rng.Intn(ports)
				}
				r.sendAt(at, rng.Intn(ports), dst, 64+rng.Intn(1400))
			}
			picks, waits := 0, 0
			for r.eng.Step() {
				now := r.eng.Now()
				for _, op := range r.sw.out {
					if op.queued == 0 {
						for _, word := range op.backlog {
							if word != 0 {
								t.Fatalf("t=%v out %d: nothing queued, backlog %x", now, op.idx, op.backlog)
							}
						}
						continue
					}
					for i := range op.voq {
						if set := op.backlog[i>>6]&(1<<uint(i&63)) != 0; set == (op.voq[i].Len() == 0) {
							t.Fatalf("t=%v out %d: backlog bit %d = %v, queue empty = %v", now, op.idx, i, set, !set)
						}
					}
					gotIn, gotNext := op.arbitrate(now)
					wantIn, wantNext := refArbitrate(op, now)
					if gotIn != wantIn || gotNext != wantNext {
						t.Fatalf("t=%v out %d rr=%d: bitmap arbiter (%d, %v), linear scan (%d, %v)",
							now, op.idx, op.rr, gotIn, gotNext, wantIn, wantNext)
					}
					if gotIn >= 0 {
						picks++
					} else {
						waits++
					}
				}
			}
			if picks == 0 || waits == 0 {
				t.Fatalf("states compared: %d with an eligible head, %d with only immature heads — want both", picks, waits)
			}
			if d := r.sw.Stats.Dropped.Packets; d != 0 {
				t.Fatalf("%d drops: the buffer was meant to hold everything", d)
			}
		})
	}
}
