// Package fixture commits every detlint/unitlint sin at once;
// under a non-model import path (metrics, survey, fpga, the CLI) those
// analyzers stay silent — the determinism contract binds the simulated
// world, not the reporting around it.
package fixture

import (
	"math/rand"
	"time"

	"diablo/internal/sim"
)

func hostSide(s sim.Scheduler, host time.Duration) {
	start := time.Now()
	_ = time.Since(start)
	_ = rand.Intn(4)
	go func() {}()
	_ = sim.Duration(host)
	s.After(5000, func() {})
}
