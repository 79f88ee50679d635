// Package fixture holds the cross-partition machinery model code must never
// name: the partitioned engine, a partition handle, and the Send/SendEvent
// calls they carry. schedlint bans the types and the constructor; with no
// ParallelEngine or Partition in hand, model code has no cross-partition
// Send, SendEvent or Cross to call, so the calls themselves need no rule.
package fixture

import "diablo/internal/sim"

type partitioned struct {
	pe *sim.ParallelEngine // want `not sim.ParallelEngine`
}

func construct(n int, q sim.Duration) {
	_ = sim.NewParallelEngine(n, q) // want `not construct an engine itself \(sim.NewParallelEngine\)`
}

func send(p *sim.Partition, at sim.Time) { // want `not sim.Partition`
	p.Send(1, at, func() {})
}

func sendTyped(p *sim.Partition, at sim.Time) { // want `not sim.Partition`
	// The typed lane crosses the barrier exactly like the closure lane.
	p.SendEvent(1, at, sim.Event{})
}
