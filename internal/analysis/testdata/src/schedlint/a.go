// Package fixture exercises schedlint in a strict model package: concrete
// engine types and run control are both banned outside the harness layer
// (the partition types are in the crosslint fixture).
package fixture

import "diablo/internal/sim"

type wired struct {
	eng *sim.Engine // want `model code must program against sim.Scheduler, not sim.Engine`
}

func construct() {
	_ = sim.NewEngine() // want `must receive its Scheduler from the wiring layer`
}

func drive(r *sim.Engine) { // want `model code must program against sim.Scheduler, not sim.Engine`
	r.Run()                 // want `engine run control \(Run\) outside the harness layer`
	r.RunUntil(sim.Time(0)) // want `engine run control \(RunUntil\) outside the harness layer`
	_ = r.Step()            // want `engine run control \(Step\) outside the harness layer`
	r.Halt()                // want `engine run control \(Halt\) outside the harness layer`
}

type component struct {
	sched sim.Scheduler
}

// The Scheduler surface is exactly what model code is supposed to use.
func (c *component) arm(d sim.Duration, fn func()) sim.EventID {
	return c.sched.After(d, fn)
}

func (c *component) cancelAt(at sim.Time, fn func()) {
	id := c.sched.At(at, fn)
	c.sched.Cancel(id)
	_ = c.sched.Now()
}
