package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"diablo/internal/core"
)

// sample is the host-side measurement of one repetition of a workload's
// public entry point, split at the first dispatched event:
//
//	enter Run* ──(setup)── first event ──(run phase)── Run* returns
//
// The run phase therefore includes result aggregation and Shutdown's
// goroutine reaping, which a user of the simulator pays on every run.
type sample struct {
	setupS   float64 // wall seconds, enter Run* to first dispatched event
	runWallS float64 // wall seconds of the run phase
	runCPUS  float64 // process CPU seconds (user+sys) of the run phase
	mallocs  uint64  // runtime.MemStats.Mallocs delta over the run phase
	packets  uint64  // simulated packets (NIC transmits + loopback deliveries)

	sim    simResult
	digest string
	// failure is why the repetition counts as failed ("" = it passed).
	failure string

	trace *traceRun // set on a traced repetition
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with a valid who and pointer
	}
	return ru
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set in MB (ru_maxrss is in
// kilobytes on Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// atFirstEvent schedules the marker that splits set-up from the run phase: a
// closure at the cluster's current time (t=0). OnCluster fires before the
// apps install, but the marker dispatches only once Run* starts the engine.
func atFirstEvent(c *core.Cluster, mark func()) {
	sched := c.Scheduler()
	sched.At(sched.Now(), mark)
}

// measure runs one repetition. With traced set it forces the sequential
// engine and interposes timing wrappers on the typed-event handlers (see
// trace.go); otherwise nothing but the t=0 marker event is added to the run.
func measure(w workload, seed uint64, sequential, traced bool) sample {
	var (
		s        sample
		cluster  *core.Cluster
		before   runtime.MemStats
		firstAt  time.Time
		firstCPU float64
	)
	// Settle the heap so a repetition is priced on its own garbage.
	runtime.GC()
	enter := time.Now()
	res, err := w.run(seed, sequential || traced, func(c *core.Cluster) {
		cluster = c
		if traced {
			s.trace = interpose(c, enter)
		}
		atFirstEvent(c, func() {
			runtime.ReadMemStats(&before)
			firstCPU = cpuSeconds()
			firstAt = time.Now()
		})
	})
	end := time.Now()
	endCPU := cpuSeconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	s.sim = res
	switch {
	case err != nil:
		s.failure = err.Error()
		return s
	case firstAt.IsZero():
		s.failure = "the t=0 marker event never ran"
		return s
	case res.problem != "":
		s.failure = res.problem
	}
	s.digest = res.digest()
	s.setupS = firstAt.Sub(enter).Seconds()
	s.runWallS = end.Sub(firstAt).Seconds()
	s.runCPUS = endCPU - firstCPU
	s.mallocs = after.Mallocs - before.Mallocs
	s.packets = packets(cluster)
	if s.trace != nil {
		s.trace.finish(cluster, firstAt, end)
	}
	return s
}

// setupPass measures the set-up alone, in process CPU-seconds: the cluster is
// built and the apps installed exactly as in a repetition, and the run is
// halted as soon as it starts. Set-up lasts 0.1 ms to 0.1 s, so it is sampled
// in many such passes, all from a settled heap, and not read off the few full
// repetitions. It is read on the CPU clock because wall time on a shared host
// stretches with the hypervisor's steal (README.md, "Measured steadiness").
func setupPass(w workload, seed uint64) (cpuS float64, err error) {
	reached := false
	runtime.GC()
	enterCPU := cpuSeconds()
	// The halted run reports an unfinished workload; only set-up is wanted.
	_, _ = w.run(seed, false, func(c *core.Cluster) {
		atFirstEvent(c, func() {
			cpuS = cpuSeconds() - enterCPU
			reached = true
		})
		// Halt from a second event one picosecond in: on a multi-rack model
		// collapsed onto the sequential engine, Cluster.Halt at t=0 rounds to
		// HaltAt(0), which the engine ignores, and the run goes to its end.
		sched := c.Scheduler()
		sched.At(sched.Now()+1, c.Halt)
	})
	if !reached {
		return 0, fmt.Errorf("%s: set-up pass never reached its first event", w.name)
	}
	return cpuS, nil
}

// stat summarises one metric over the repetitions of a run.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Q1 and Q3 are the quartiles (the median's neighbours when n < 4);
	// -compare reads the spread (Q3-Q1)/Median from them.
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	// Values are the samples in the order they were measured.
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return stat{Unit: unit}
	}
	return stat{Unit: unit, N: n, Median: quantile(v, 0.5), Min: v[0], Max: v[n-1], Q1: quantile(v, 0.25), Q3: quantile(v, 0.75), Values: values}
}

// quantile interpolates linearly between the order statistics of sorted v.
func quantile(v []float64, q float64) float64 {
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func (s stat) String() string {
	return fmt.Sprintf("%-12.6g %-6s n=%-3d min=%-12.6g max=%-12.6g", s.Median, s.Unit, s.N, s.Min, s.Max)
}
