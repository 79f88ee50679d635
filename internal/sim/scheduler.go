package sim

// Scheduler is the engine-agnostic event-scheduling surface, for the calls
// that may have to be routed: the delivery side of a link, which crosses
// partitions through a Cross scheduler, fault edges, observation gauges and
// harnesses. It is satisfied by *Engine, by the per-partition handles of the
// ParallelEngine (DIABLO's one-rack-per-FPGA organization) and by Cross
// schedulers. The model components themselves (kernel, NIC, switch, a link's
// transmit side) hold their partition's *Engine (Partition.Engine), bound
// once at wiring, so their scheduling calls go to the queue directly.
//
// All methods must be invoked from the scheduler's own event context (or
// before the run starts): a component in partition i may only call the
// scheduler it was wired with. Cross-partition interaction goes through
// ParallelEngine.SendEvent or a Cross scheduler, never through another
// partition's local one.
type Scheduler interface {
	// Now returns the current simulated time.
	Now() Time
	// At schedules fn at the absolute time at (panics if at < Now). General,
	// but a capturing closure is an allocation; hot paths use AtEvent.
	At(at Time, fn func()) EventID
	// After schedules fn d after the current time (panics if d < 0).
	After(d Duration, fn func()) EventID
	// AtEvent schedules a typed event record at the absolute time at without
	// allocating. ev.Kind must be registered on the engine (see
	// HandlerRegistrar); the same past-time rules as At apply.
	AtEvent(at Time, ev Event) EventID
	// AfterEvent schedules a typed event record d after the current time.
	AfterEvent(d Duration, ev Event) EventID
	// LaneAt schedules ev at the absolute time at on lane l (see Lane).
	LaneAt(l *Lane, at Time, ev Event)
	// LaneFired is called by the handler of every record scheduled on l.
	LaneFired(l *Lane, ev Event)
	// Cancel prevents a scheduled event from running; cancelling a fired or
	// zero EventID is a no-op. Cross-partition events are not cancellable:
	// their Scheduler returns the zero EventID, and cancelling a non-zero ID
	// through a Cross scheduler is recorded as a failed cancel (see
	// ParallelEngine.FailedCrossCancels) rather than silently ignored.
	Cancel(id EventID)
}

// Compile-time interface checks.
var (
	_ Scheduler        = (*Engine)(nil)
	_ Scheduler        = (*Partition)(nil)
	_ Scheduler        = crossScheduler{}
	_ HandlerRegistrar = (*Engine)(nil)
	_ HandlerRegistrar = (*ParallelEngine)(nil)
	_ HandlerRegistrar = (*Partition)(nil)
)
