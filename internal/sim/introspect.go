package sim

// Engine introspection: read-only visibility into the event queue tiers, the
// per-partition execution balance and the quantum barrier, consumed by the
// observability layer (internal/obs) and the run manifest.
//
// Determinism contract: QueueStats, PartitionStats and the quantum counters
// are pure functions of the model (the barrier schedule and every queue's
// contents are model-defined), so they may be sampled into deterministic
// time series. BarrierStats is the one exception — spin vs park outcomes
// depend on OS scheduling — and is documented as a wall-clock diagnostic
// that must stay out of any determinism-checked output.

// QueueStats reports the occupancy of each tier of an engine's event queue:
// the sorted near run, the rolling level-0 window of the timing wheel and
// the coarse levels beyond it, and the lane records waiting for a slot. Near
// and Wheel include cancelled entries that have not yet surfaced and been
// collected, mirroring Pending.
type QueueStats struct {
	Near  int // sorted near-run entries not yet dispatched
	Wheel int // entries waiting in the level-0 buckets
	Far   int // entries chained in the upper wheel levels
	Lanes int // lane nodes waiting for a slot (see Lane)
}

// Total returns the summed occupancy across tiers: Pending's count.
func (s QueueStats) Total() int { return s.Near + s.Wheel + s.Far + s.Lanes }

func (q *eventQueue) stats() QueueStats {
	return QueueStats{Near: len(q.near) - q.nearPos, Wheel: q.inWheel, Far: q.inUpper, Lanes: q.inLanes}
}

// QueueStats reports the engine's event-queue tier occupancy.
func (e *Engine) QueueStats() QueueStats { return e.q.stats() }

// Executed returns the number of events the partition has dispatched. Safe
// from the partition's own event context at any time, and from any goroutine
// once the run has returned.
func (p *Partition) Executed() uint64 { return p.eng.Executed }

// QueueStats reports the partition's event-queue tier occupancy. Same safety
// rules as Executed.
func (p *Partition) QueueStats() QueueStats { return p.eng.QueueStats() }

// PartitionStats is one partition's share of a run.
type PartitionStats struct {
	ID         int
	Executed   uint64     // events dispatched since engine creation
	BusyQuanta uint64     // quanta in which the partition dispatched >= 1 event
	Queue      QueueStats // tier occupancy at collection time
}

// Utilization returns the fraction of executed quanta in which the partition
// had work — the software analogue of per-FPGA utilization in the paper's §5
// scaling discussion.
func (s PartitionStats) Utilization(quanta uint64) float64 {
	if quanta == 0 {
		return 0
	}
	return float64(s.BusyQuanta) / float64(quanta)
}

// BarrierStats counts how quantum-barrier waits resolved. These depend on OS
// scheduling and wall-clock timing, NOT on the model: they are diagnostics
// for tuning the spin budget and must never feed a deterministic series or a
// replay digest.
type BarrierStats struct {
	SpinWakes uint64 // awaits released within the spin budget
	ParkWakes uint64 // awaits that fully parked on the condition variable
}

// EngineIntrospection is a point-in-time snapshot of a parallel run's
// execution balance. It has one PartitionStats per event queue: one per
// partition, or a single one for a shared queue, which runs no quanta.
type EngineIntrospection struct {
	Quanta     uint64 // barrier iterations actually executed (deterministic)
	Partitions []PartitionStats
	Barrier    BarrierStats // nondeterministic diagnostics; see BarrierStats
}

// engineIntro is the collection state behind EnableIntrospection. It lives
// off the hot path: when nil, RunUntil pays a single pointer test per
// quantum.
type engineIntro struct {
	quanta   uint64
	busy     []uint64
	lastExec []uint64
	barrier  BarrierStats
}

// note records one executed quantum for the partitions of one worker, which
// calls it after running them, when their Executed is its own to read. The
// quantum itself is counted once, by worker 0.
func (in *engineIntro) note(first bool, parts []*Partition) {
	if first {
		in.quanta++
	}
	for _, p := range parts {
		if e := p.eng.Executed; e != in.lastExec[p.id] {
			in.busy[p.id]++
			in.lastExec[p.id] = e
		}
	}
}

// EnableIntrospection turns on per-quantum collection (quantum count,
// per-partition busy quanta, barrier wait diagnostics). Call before RunUntil;
// it is idempotent. Introspection adds one O(partitions) scan per quantum
// and is off by default, keeping the detached hot path unchanged.
func (pe *ParallelEngine) EnableIntrospection() {
	if pe.intro != nil {
		return
	}
	n := len(pe.parts)
	pe.intro = &engineIntro{busy: make([]uint64, n), lastExec: make([]uint64, n)}
}

// Introspection returns the snapshot accumulated since EnableIntrospection.
// Call between runs (or before the first); the zero snapshot is returned
// when introspection is disabled.
func (pe *ParallelEngine) Introspection() EngineIntrospection {
	var out EngineIntrospection
	if pe.intro == nil {
		return out
	}
	out.Quanta = pe.intro.quanta
	out.Barrier = pe.intro.barrier
	for i, e := range pe.engines {
		out.Partitions = append(out.Partitions, PartitionStats{
			ID:         i,
			Executed:   e.Executed,
			BusyQuanta: pe.intro.busy[i],
			Queue:      e.QueueStats(),
		})
	}
	return out
}
