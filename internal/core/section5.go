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
	if requestsPerClient <= 0 {
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

// EngineComparisonStats reports the engine-comparison probe (§5): event
// throughput of the same synthetic communicating-racks model on the
// sequential and quantum-barrier parallel engines, plus heap allocations per
// dispatched event. Allocation counts come from runtime.MemStats deltas
// around each run, so they include the model's own closure allocations —
// what they track across PRs is the engine's hot-path contribution shrinking
// toward that model floor.
type EngineComparisonStats struct {
	SeqEventsPerSec   float64
	ParEventsPerSec   float64
	SeqEvents         uint64
	ParEvents         uint64
	SeqAllocsPerEvent float64
	ParAllocsPerEvent float64

	// The capture run prices the pre-v2 hot-path idiom on the sequential
	// engine: every schedule allocates a fresh closure capturing per-event
	// state, as link/vswitch/nic did before the typed lane. (The Seq run
	// keeps its historical static-closure chain — the committed baseline
	// gates against it — which is the closure lane's best case, not what
	// per-packet code can write.)
	CaptureEventsPerSec   float64
	CaptureEvents         uint64
	CaptureAllocsPerEvent float64

	// The typed-lane run is the same chain scheduled through AfterEvent
	// records (Scheduler API v2's hot-path lane): per-event state rides in
	// Arg/Tgt, so steady-state scheduling allocates nothing.
	TypedEventsPerSec   float64
	TypedEvents         uint64
	TypedAllocsPerEvent float64
}

// Speedup returns the parallel/sequential throughput ratio.
func (s EngineComparisonStats) Speedup() float64 {
	if s.SeqEventsPerSec == 0 {
		return 0
	}
	return s.ParEventsPerSec / s.SeqEventsPerSec
}

// TypedSpeedup returns the typed-lane throughput relative to the
// capturing-closure idiom it replaced on the hot paths — the before/after of
// the Scheduler API v2 migration in isolation.
func (s EngineComparisonStats) TypedSpeedup() float64 {
	if s.CaptureEventsPerSec == 0 {
		return 0
	}
	return s.TypedEventsPerSec / s.CaptureEventsPerSec
}

// ecCaptureChain is one partition's chain state in the capturing-closure
// probe: the hop count is per-event state, so every schedule allocates a
// fresh closure environment to carry it — exactly the cost the typed lane
// removes.
type ecCaptureChain struct {
	eng       *sim.Engine
	count     int
	limit     int
	lookahead sim.Duration
}

func (c *ecCaptureChain) tick(hop int) {
	c.count++
	if c.count >= c.limit {
		return
	}
	next := hop + 1
	c.eng.After(100*sim.Nanosecond, func() { c.tick(next) })
	if c.count%16 == 0 {
		c.eng.After(c.lookahead, func() { _ = next })
	}
}

// ecTypedChain is one partition's chain state in the typed-lane probe: the
// hop count rides in the record's Arg, so nothing is allocated per event. A
// zero-limit chain acts as the sink for the no-op neighbour messages.
type ecTypedChain struct {
	eng       *sim.Engine
	count     int
	limit     int
	sink      *ecTypedChain
	lookahead sim.Duration
}

func (c *ecTypedChain) tick(hop uint64) {
	c.count++
	if c.count >= c.limit {
		return
	}
	c.eng.AfterEvent(100*sim.Nanosecond, sim.Event{Kind: sim.EvAppTick, Tgt: c, Arg: hop + 1})
	if c.count%16 == 0 {
		c.eng.AfterEvent(c.lookahead, sim.Event{Kind: sim.EvAppTick, Tgt: c.sink, Arg: hop})
	}
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
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
	st := EngineComparisonMeasured(partitions, eventsPerPartition)
	return st.SeqEventsPerSec, st.ParEventsPerSec
}

// EngineComparisonMeasured is EngineComparison with the full measurement:
// throughput plus allocs/event for both engines. It is the probe behind
// BenchmarkSection5EngineParallel and cmd/benchjson's trajectory file.
func EngineComparisonMeasured(partitions, eventsPerPartition int) EngineComparisonStats {
	const lookahead = 100 * sim.Microsecond
	deadline := sim.Time(sim.Second)
	var st EngineComparisonStats

	// Sequential run.
	{
		eng := sim.NewEngine()
		for p := 0; p < partitions; p++ {
			p := p
			var tick func()
			count := 0
			tick = func() {
				count++
				if count >= eventsPerPartition {
					return
				}
				// Local work plus occasional neighbour message.
				eng.After(100*sim.Nanosecond, tick)
				if count%16 == 0 {
					_ = p // same engine: neighbour events are just events
					eng.After(lookahead, func() {})
				}
			}
			eng.At(0, tick)
		}
		allocs := mallocs()
		start := time.Now() //simlint:allow detlint host-side self-measurement: events/second of the sequential engine
		eng.RunUntil(deadline)
		//simlint:allow detlint host-side self-measurement (wall-clock denominator)
		wall := time.Since(start).Seconds()
		allocs = mallocs() - allocs
		st.SeqEvents = eng.Executed
		st.SeqEventsPerSec = float64(eng.Executed) / wall
		st.SeqAllocsPerEvent = float64(allocs) / float64(eng.Executed)
	}

	// Capturing-closure run: the same chain, but every schedule allocates a
	// fresh environment-capturing closure — the pre-v2 hot-path idiom, where
	// per-packet state (the frame, the hop count) has to ride in the capture.
	// The static chain above is the closure lane's unreachable best case; this
	// run is what link/vswitch/nic actually paid before the typed lane.
	{
		eng := sim.NewEngine()
		for p := 0; p < partitions; p++ {
			c := &ecCaptureChain{eng: eng, limit: eventsPerPartition, lookahead: lookahead}
			eng.At(0, func() { c.tick(0) })
		}
		allocs := mallocs()
		start := time.Now() //simlint:allow detlint host-side self-measurement: events/second of the capturing-closure idiom
		eng.RunUntil(deadline)
		//simlint:allow detlint host-side self-measurement (wall-clock denominator)
		wall := time.Since(start).Seconds()
		allocs = mallocs() - allocs
		st.CaptureEvents = eng.Executed
		st.CaptureEventsPerSec = float64(eng.Executed) / wall
		st.CaptureAllocsPerEvent = float64(allocs) / float64(eng.Executed)
	}

	// Typed-lane run of the same structure on the sequential engine: the
	// chain state lives in a heap object referenced by the record's Tgt and
	// the hop count rides in Arg, so steady-state scheduling allocates
	// nothing — the record replaces the capture the run above allocates.
	{
		eng := sim.NewEngine()
		eng.RegisterHandler(sim.EvAppTick, func(_ sim.Time, ev sim.Event) {
			ev.Tgt.(*ecTypedChain).tick(ev.Arg)
		})
		sink := &ecTypedChain{} // limit 0: neighbour messages are no-op events
		for p := 0; p < partitions; p++ {
			c := &ecTypedChain{eng: eng, limit: eventsPerPartition, sink: sink, lookahead: lookahead}
			eng.AtEvent(0, sim.Event{Kind: sim.EvAppTick, Tgt: c, Arg: 0})
		}
		allocs := mallocs()
		start := time.Now() //simlint:allow detlint host-side self-measurement: events/second of the typed lane
		eng.RunUntil(deadline)
		//simlint:allow detlint host-side self-measurement (wall-clock denominator)
		wall := time.Since(start).Seconds()
		allocs = mallocs() - allocs
		st.TypedEvents = eng.Executed
		st.TypedEventsPerSec = float64(eng.Executed) / wall
		st.TypedAllocsPerEvent = float64(allocs) / float64(eng.Executed)
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
		allocs := mallocs()
		start := time.Now() //simlint:allow detlint host-side self-measurement: events/second of the parallel engine
		pe.RunUntil(deadline)
		//simlint:allow detlint host-side self-measurement (wall-clock denominator)
		wall := time.Since(start).Seconds()
		allocs = mallocs() - allocs
		st.ParEvents = pe.Executed
		st.ParEventsPerSec = float64(pe.Executed) / wall
		st.ParAllocsPerEvent = float64(allocs) / float64(pe.Executed)
	}
	return st
}
