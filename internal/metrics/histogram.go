// Package metrics provides the measurement machinery shared by every DIABLO
// experiment: latency histograms with percentile/CDF/PMF extraction,
// throughput accounting, and text renderers for the tables and data series
// reported in the paper.
package metrics

import (
	"math"

	"diablo/internal/sim"
)

// Histogram is a log-bucketed latency histogram (HDR-style): values are
// bucketed with a fixed relative precision, so it resolves both a 10 µs
// median and a 100 ms tail without storing every sample. It additionally
// keeps exact min/max/sum.
//
// Bucketing: value v (in picoseconds) lands in bucket
// floor(log(v)/log(growth)) where growth = 1+1/subBuckets; with the default
// 64 sub-buckets the relative error is < 1.6%.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    sim.Duration
	max    sim.Duration
}

// histGrowth is the per-bucket growth factor; buckets are ~1.5% wide.
const histGrowth = 1.0 / 64

var logGrowth = math.Log1p(histGrowth)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(v sim.Duration) int {
	if v <= 0 {
		return 0
	}
	return 1 + int(math.Log(float64(v))/logGrowth)
}

// bucketLow returns the lower bound of bucket b (inverse of bucketOf).
func bucketLow(b int) sim.Duration {
	if b <= 0 {
		return 0
	}
	return sim.Duration(math.Exp(float64(b-1) * logGrowth))
}

// Record adds one sample.
func (h *Histogram) Record(v sim.Duration) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+16)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean sample value.
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.total))
}

// Min returns the smallest recorded sample (0 if empty).
func (h *Histogram) Min() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() sim.Duration { return h.max }

// Percentile returns the value at quantile q in [0,1], e.g. 0.99 for the
// 99th percentile. The result is the upper bound of the bucket containing
// the q-th sample, clamped to the exact max.
func (h *Histogram) Percentile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			hi := bucketLow(b + 1)
			if hi > h.max {
				hi = h.max
			}
			if hi < h.min {
				hi = h.min
			}
			return hi
		}
	}
	return h.max
}

// CDFPoint is one point of a cumulative distribution: fraction of samples
// with value <= Value.
type CDFPoint struct {
	Value    sim.Duration
	Fraction float64
}

// CDF returns the cumulative distribution over non-empty buckets.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var pts []CDFPoint
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		v := bucketLow(b + 1)
		if v > h.max {
			v = h.max
		}
		pts = append(pts, CDFPoint{Value: v, Fraction: float64(seen) / float64(h.total)})
	}
	return pts
}

// TailCDF returns CDF points restricted to quantiles >= from (e.g. 0.95 for
// the paper's 95th–100th percentile tail plots).
func (h *Histogram) TailCDF(from float64) []CDFPoint {
	var pts []CDFPoint
	for _, p := range h.CDF() {
		if p.Fraction >= from {
			pts = append(pts, p)
		}
	}
	return pts
}

// PMFBin is one bin of a probability mass function over log-spaced bins.
type PMFBin struct {
	Low, High sim.Duration
	Fraction  float64
}

// PMF returns the distribution re-binned into binsPerDecade log-spaced bins
// (Figure 10 uses roughly 10 bins per decade).
func (h *Histogram) PMF(binsPerDecade int) []PMFBin {
	if h.total == 0 || binsPerDecade <= 0 {
		return nil
	}
	ratio := math.Pow(10, 1/float64(binsPerDecade))
	lo := float64(h.min)
	if lo < 1 {
		lo = 1
	}
	var bins []PMFBin
	for base := lo; base <= float64(h.max)*ratio; base *= ratio {
		low, high := sim.Duration(base), sim.Duration(base*ratio)
		var n uint64
		for b := bucketOf(low); b <= bucketOf(high) && b < len(h.counts); b++ {
			// Attribute each histogram bucket to the PMF bin containing its
			// lower bound; buckets are much narrower than PMF bins.
			if bucketLow(b) >= low && bucketLow(b) < high {
				n += h.counts[b]
			}
		}
		bins = append(bins, PMFBin{Low: low, High: high, Fraction: float64(n) / float64(h.total)})
		if high > h.max {
			break
		}
	}
	return bins
}
