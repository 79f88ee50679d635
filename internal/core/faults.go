package core

import (
	"fmt"

	"diablo/internal/apps/incast"
	"diablo/internal/fault"
	"diablo/internal/metrics"
)

// This file holds the §6-style graceful-degradation runners: each runs a
// workload twice — healthy and under an injected fault plan — and quantifies
// the degradation. Both runs use identical seeds, so every difference is
// attributable to the faults.

// FaultedMemcachedResult pairs the two runs with their computed degradation.
type FaultedMemcachedResult struct {
	Baseline, Faulted *MemcachedResult
	Degradation       *metrics.Degradation
	Plan              *fault.Plan
}

// RunMemcachedFaulted runs cfg twice — healthy, then under plan — and
// quantifies the degradation. cfg.Faults is overwritten on both runs.
func RunMemcachedFaulted(cfg MemcachedConfig, plan *fault.Plan) (*FaultedMemcachedResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	base := cfg
	base.Faults = nil
	baseline, err := RunMemcached(base)
	if err != nil {
		return nil, fmt.Errorf("core: baseline run: %w", err)
	}

	faulted := cfg
	faulted.Faults = plan
	fr, err := RunMemcached(faulted)
	if err != nil {
		return nil, fmt.Errorf("core: faulted run: %w", err)
	}

	return &FaultedMemcachedResult{
		Baseline: baseline,
		Faulted:  fr,
		Plan:     plan,
		Degradation: &metrics.Degradation{
			Name:            "memcached under faults",
			Baseline:        baseline.Overall,
			Faulted:         fr.Overall,
			BaselineLost:    baseline.Lost(),
			FaultedLost:     fr.Lost(),
			BaselineRetried: baseline.Retried,
			FaultedRetried:  fr.Retried,
			FaultDrops:      fr.FaultDrops,
		},
	}, nil
}

// FaultedIncastResult pairs the two runs with their computed degradation.
// The Degradation histograms hold per-iteration completion times.
type FaultedIncastResult struct {
	Baseline, Faulted incast.Result
	Degradation       *metrics.Degradation
	Plan              *fault.Plan
}

// GoodputRatio returns faulted/baseline goodput.
func (r *FaultedIncastResult) GoodputRatio() float64 {
	if r.Baseline.GoodputBps <= 0 {
		return 0
	}
	return r.Faulted.GoodputBps / r.Baseline.GoodputBps
}

// RunIncastFaulted runs cfg twice — healthy, then under plan — and
// quantifies the degradation. cfg.Faults is overwritten on both runs.
func RunIncastFaulted(cfg IncastConfig, plan *fault.Plan) (*FaultedIncastResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	base := cfg
	base.Faults = nil
	baseline, err := RunIncast(base)
	if err != nil {
		return nil, fmt.Errorf("core: baseline run: %w", err)
	}

	faulted := cfg
	faulted.Faults = plan
	var cluster *Cluster
	prev := faulted.OnCluster
	faulted.OnCluster = func(c *Cluster) {
		cluster = c
		if prev != nil {
			prev(c)
		}
	}
	fr, err := RunIncast(faulted)
	if err != nil {
		return nil, fmt.Errorf("core: faulted run: %w", err)
	}
	var faultDrops uint64
	if cluster != nil {
		faultDrops = cluster.FaultDrops()
	}

	iters := func(r incast.Result) *metrics.Histogram {
		h := metrics.NewHistogram()
		for _, d := range r.IterTimes {
			h.Record(d)
		}
		return h
	}
	return &FaultedIncastResult{
		Baseline: baseline,
		Faulted:  fr,
		Plan:     plan,
		Degradation: &metrics.Degradation{
			Name:            "incast under faults",
			Baseline:        iters(baseline),
			Faulted:         iters(fr),
			BaselineRetried: baseline.Retransmits,
			FaultedRetried:  fr.Retransmits,
			FaultDrops:      faultDrops,
		},
	}, nil
}
