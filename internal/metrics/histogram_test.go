package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"diablo/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond {
		t.Fatalf("min = %v", h.Min())
	}
	if h.Max() != 100*sim.Microsecond {
		t.Fatalf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 49*sim.Microsecond || mean > 52*sim.Microsecond {
		t.Fatalf("mean = %v, want ~50.5us", mean)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(sim.Duration(i) * sim.Nanosecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Percentile(q))
		want := q * n * float64(sim.Nanosecond)
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("p%.3f = %v, want ~%v", q*100, sim.Duration(got), sim.Duration(want))
		}
	}
	if h.Percentile(0) != h.Min() || h.Percentile(1) != h.Max() {
		t.Fatal("extreme quantiles must be exact min/max")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5 * sim.Nanosecond)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample handling: min=%v max=%v n=%d", h.Min(), h.Max(), h.Count())
	}
}

// Property: the histogram percentile is within bucket precision (1.6% + one
// bucket) of the exact percentile for arbitrary data.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]float64, len(raw))
		for i, r := range raw {
			v := sim.Duration(r%1_000_000_000) + 1
			h.Record(v)
			vals[i] = float64(v)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			idx := int(math.Ceil(q*float64(len(vals)))) - 1
			if idx < 0 {
				idx = 0
			}
			exact := vals[idx]
			got := float64(h.Percentile(q))
			// Allow one bucket of slack (growth factor ~1.57%) on each side.
			if got < exact/1.04 || got > exact*1.04 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 5000; i++ {
		h.Record(sim.Duration((i%100)*(i%100)) * sim.Microsecond)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Fraction < cdf[i-1].Fraction || cdf[i].Value < cdf[i-1].Value {
			t.Fatal("CDF not monotone")
		}
	}
	if last := cdf[len(cdf)-1].Fraction; math.Abs(last-1) > 1e-9 {
		t.Fatalf("CDF does not reach 1: %v", last)
	}
}

func TestTailCDF(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	tail := h.TailCDF(0.95)
	for _, p := range tail {
		if p.Fraction < 0.95 {
			t.Fatalf("tail CDF contains fraction %v < 0.95", p.Fraction)
		}
	}
	if len(tail) == 0 {
		t.Fatal("empty tail")
	}
}

func TestPMFSumsToOne(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 20000; i++ {
		h.Record(sim.Duration(10+i%3000) * sim.Microsecond)
	}
	bins := h.PMF(10)
	var sum float64
	for _, b := range bins {
		if b.Fraction < 0 || b.Fraction > 1 {
			t.Fatalf("bad bin fraction %v", b.Fraction)
		}
		sum += b.Fraction
	}
	if math.Abs(sum-1) > 0.02 {
		t.Fatalf("PMF mass = %v, want ~1", sum)
	}
}

func TestCounterThroughput(t *testing.T) {
	var c Counter
	for i := 0; i < 1000; i++ {
		c.Add(1500)
	}
	// 1.5 MB over 12 ms = 1 Gbps.
	got := c.Throughput(12 * sim.Millisecond)
	if math.Abs(got-1e9)/1e9 > 0.001 {
		t.Fatalf("throughput = %v, want 1e9", got)
	}
	if c.Throughput(0) != 0 {
		t.Fatal("zero elapsed must give zero throughput")
	}
}

func TestSeriesString(t *testing.T) {
	s := &Series{Name: "test", XLabel: "senders", YLabel: "mbps"}
	s.Append(1, 900)
	s.Append(2, 850)
	out := s.String()
	if out == "" || s.Len() != 2 {
		t.Fatal("series rendering failed")
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{Title: "t", Columns: []string{"a", "bb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	out := tb.String()
	if out == "" {
		t.Fatal("empty table output")
	}
}

func TestFromCDFAndPMF(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	s := FromCDF("c", h.CDF())
	if s.Len() == 0 || s.XLabel != "latency_us" {
		t.Fatal("FromCDF broken")
	}
	p := FromPMF("p", h.PMF(5))
	if p.Len() == 0 {
		t.Fatal("FromPMF broken")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(sim.Duration(i%1000000) * sim.Nanosecond)
	}
}
