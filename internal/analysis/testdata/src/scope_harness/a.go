// Package fixture holds harness-layer patterns: constructing engines,
// driving runs and wiring partitions is exactly what core and cmd do. Under
// a harness import path, schedlint must stay silent on all of
// it (and detlint/unitlint find nothing to object to either).
package fixture

import "diablo/internal/sim"

func wireAndRun(n int, quantum sim.Duration, deadline sim.Time) uint64 {
	pe := sim.NewParallelEngine(n, quantum)
	for i := 0; i < n; i++ {
		p := pe.Partition(i)
		p.At(0, func() {})
	}
	pe.Send(0, n-1, sim.Time(quantum), func() {})
	cross := pe.Cross(0, n-1)
	cross.After(quantum, func() {})
	pe.RunUntil(deadline)

	eng := sim.NewEngine()
	eng.Run()
	eng.Halt()
	return pe.Executed
}
