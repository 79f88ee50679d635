package core

import (
	"fmt"
	"runtime"
	"time"

	"diablo/internal/apps/memcache"
	"diablo/internal/metrics"
	"diablo/internal/sim"
)

// PerfPoint is one simulator-performance measurement (§5): how much
// wall-clock time one simulated second costs at a given scale.
type PerfPoint struct {
	Nodes     int
	Simulated sim.Duration
	Wall      time.Duration
	Events    uint64
	Slowdown  float64 // wall / simulated
}

// EventsPerSec returns the engine's event throughput.
func (p PerfPoint) EventsPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Events) / p.Wall.Seconds()
}

// Section5Performance measures the software simulator the way §5 reports
// DIABLO: simulated-time slowdown at each scale under the memcached UDP
// workload. DIABLO (FPGA-accelerated) achieved a 250-1000x slowdown with
// perfect scaling; a sequential software simulator's slowdown grows with
// node count — this experiment quantifies by how much, which is exactly the
// gap the FPGA acceleration buys.
func Section5Performance(arrays []int, requestsPerClient int) ([]PerfPoint, error) {
	if len(arrays) == 0 {
		arrays = []int{1, 2, 4}
	}
	if requestsPerClient == 0 {
		requestsPerClient = 60
	}
	var out []PerfPoint
	for _, a := range arrays {
		cfg := DefaultMemcached()
		cfg.Arrays = a
		cfg.Proto = memcache.UDP
		cfg.RequestsPerClient = requestsPerClient
		start := time.Now() //simlint:allow detlint host-side self-measurement: wall-clock per simulated second is the experiment's output
		res, err := RunMemcached(cfg)
		if err != nil {
			return nil, fmt.Errorf("section 5 scale %d: %w", Nodes(a), err)
		}
		wall := time.Since(start) //simlint:allow detlint host-side self-measurement (slowdown numerator)
		p := PerfPoint{
			Nodes:     Nodes(a),
			Simulated: res.Elapsed,
			Wall:      wall,
		}
		if res.Elapsed > 0 {
			p.Slowdown = wall.Seconds() / res.Elapsed.Seconds()
		}
		out = append(out, p)
	}
	return out, nil
}

// PerfTable renders performance points in the §5 style.
func PerfTable(points []PerfPoint) *metrics.Table {
	tb := &metrics.Table{
		Title:   "Section 5: simulator performance (wall-clock per simulated time)",
		Columns: []string{"nodes", "simulated", "wall", "slowdown"},
	}
	for _, p := range points {
		tb.AddRow(fmt.Sprint(p.Nodes), p.Simulated.String(),
			p.Wall.Round(time.Millisecond).String(), fmt.Sprintf("%.0fx", p.Slowdown))
	}
	return tb
}

// EngineComparison measures the sequential engine against the partitioned
// parallel engine (DIABLO's multi-FPGA structure) on a synthetic
// communicating-racks model: each partition runs a local event chain and
// exchanges timestamped messages with neighbours under a 100 µs lookahead
// (the barrier amortization regime; with very fine lookahead the barrier
// overhead dominates, which is precisely why DIABLO engineered low-latency
// inter-FPGA synchronization). It returns events/second for both
// executions of the same model.
func EngineComparison(partitions, eventsPerPartition int) (seqRate, parRate float64) {
	const lookahead = 100 * sim.Microsecond
	deadline := sim.Time(sim.Second)

	// Sequential run.
	{
		eng := sim.NewEngine()
		for p := 0; p < partitions; p++ {
			var tick func()
			count := 0
			tick = func() {
				count++
				if count >= eventsPerPartition {
					return
				}
				// Local work plus occasional neighbour message: on one
				// engine, neighbour events are just events.
				eng.After(100*sim.Nanosecond, tick)
				if count%16 == 0 {
					eng.After(lookahead, func() {})
				}
			}
			eng.At(0, tick)
		}
		start := time.Now() //simlint:allow detlint host-side self-measurement: events/second of the sequential engine
		eng.RunUntil(deadline)
		//simlint:allow detlint host-side self-measurement (wall-clock denominator)
		seqRate = float64(eng.Executed) / time.Since(start).Seconds()
	}

	// Parallel run of the same structure.
	{
		pe := sim.NewParallelEngine(partitions, lookahead)
		pe.SetWorkers(runtime.GOMAXPROCS(0))
		for p := 0; p < partitions; p++ {
			p := p
			eng := pe.Partition(p)
			var tick func()
			count := 0
			tick = func() {
				count++
				if count >= eventsPerPartition {
					return
				}
				eng.After(100*sim.Nanosecond, tick)
				if count%16 == 0 {
					dst := (p + 1) % partitions
					pe.Send(p, dst, eng.Now().Add(lookahead), func() {})
				}
			}
			eng.At(0, tick)
		}
		start := time.Now() //simlint:allow detlint host-side self-measurement: events/second of the parallel engine
		pe.RunUntil(deadline)
		//simlint:allow detlint host-side self-measurement (wall-clock denominator)
		parRate = float64(pe.Executed) / time.Since(start).Seconds()
	}
	return seqRate, parRate
}
