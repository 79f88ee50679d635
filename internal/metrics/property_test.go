package metrics

// Property tests for the statistics primitives the observability layer leans
// on: a histogram's statistics must not depend on the order its samples are
// recorded in, and the rate helper must tolerate a zero elapsed duration (a
// run halted at t=0) without dividing by zero.

import (
	"fmt"
	"testing"

	"diablo/internal/sim"
)

// TestHistogramMergeEqualsPooled: samples merged from N streams into one
// histogram give the same statistics in any record order. A partitioned
// memcached run feeds one mutex-guarded histogram from callbacks of every
// partition, in an order that depends on how the workers interleave, so its
// results are worker-count invariant only because the order cannot reach
// count, mean, min, max or any quantile. (The mean sums float64 picoseconds,
// exact while the total stays below 2^53 ps, about 2.5 simulated hours.)
func TestHistogramMergeEqualsPooled(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8, 17} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := sim.NewRand(0xd1ab10 + uint64(shards))
			streams := make([][]sim.Duration, shards)
			pooled := NewHistogram() // in generation order: the streams interleaved
			const samples = 5000
			for i := 0; i < samples; i++ {
				// Log-uniform-ish spread from sub-µs to seconds, plus
				// occasional zero and extreme values.
				var v sim.Duration
				switch i % 97 {
				case 0:
					v = 0
				case 1:
					v = sim.Duration(1)
				default:
					shift := uint(rng.Intn(40))
					v = sim.Duration(rng.Uint64()%(1<<shift) + 1)
				}
				pooled.Record(v)
				s := rng.Intn(shards)
				streams[s] = append(streams[s], v)
			}
			byStream, reversed := NewHistogram(), NewHistogram()
			for s := range streams {
				for _, v := range streams[s] {
					byStream.Record(v)
				}
				last := streams[len(streams)-1-s]
				for k := len(last) - 1; k >= 0; k-- {
					reversed.Record(last[k])
				}
			}
			for _, c := range []struct {
				name string
				h    *Histogram
			}{{"stream by stream", byStream}, {"reversed", reversed}} {
				name, h := c.name, c.h
				if h.Count() != pooled.Count() || h.Mean() != pooled.Mean() ||
					h.Min() != pooled.Min() || h.Max() != pooled.Max() {
					t.Fatalf("%s: n=%d mean=%v min=%v max=%v, interleaved n=%d mean=%v min=%v max=%v", name,
						h.Count(), h.Mean(), h.Min(), h.Max(), pooled.Count(), pooled.Mean(), pooled.Min(), pooled.Max())
				}
				for k := 0; k <= 1000; k++ {
					q := float64(k) / 1000
					if got, want := h.Percentile(q), pooled.Percentile(q); got != want {
						t.Fatalf("%s: p%v = %v, interleaved %v", name, q*100, got, want)
					}
				}
			}
		})
	}
}

// TestRatesZeroElapsed: Counter.Throughput must return 0 (not NaN/Inf, not
// panic) when the elapsed duration is zero or negative — the state of any run
// halted before its first delivery.
func TestRatesZeroElapsed(t *testing.T) {
	for _, elapsed := range []sim.Duration{0, -sim.Second} {
		c := &Counter{Packets: 10, Bytes: 1 << 20}
		if th := c.Throughput(elapsed); th != 0 {
			t.Errorf("Throughput(%v) = %v, want 0", elapsed, th)
		}
	}
	// Sanity: a real elapsed still yields the expected rate.
	c := &Counter{Bytes: 125_000_000}
	if th := c.Throughput(sim.Second); th != 1e9 {
		t.Errorf("Throughput(125MB, 1s) = %v, want 1e9", th)
	}
}
