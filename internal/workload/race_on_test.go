//go:build race

package workload

// raceEnabled reports a -race build, whose runtime allocates on its own: the
// allocation budgets skip under it.
const raceEnabled = true
