package kernel

import "diablo/internal/sim"

// DaemonConfig describes a background housekeeping workload: periodic
// kernel/daemon activity that preempts application threads. The paper notes
// its simulated 120-node cluster "is a more ideal environment with less
// software services running in the background" than the real cluster and
// that background services contribute to the latency tail; this knob lets
// experiments dial that contribution.
type DaemonConfig struct {
	// Period is the mean interval between bursts (exponentially
	// distributed).
	Period sim.Duration
	// BurstInstr is the typical CPU burst per wakeup in instructions.
	BurstInstr int64
	// MaxBurstInstr caps the heavy-tailed burst distribution (bursts are
	// generalized-Pareto distributed: housekeeping is usually tens of
	// microseconds but occasionally runs for milliseconds — cron, log
	// rotation, page reclaim — the "sources of tail latency" of Li et
	// al. [43] and Dean & Barroso [33]). Zero selects 50x BurstInstr.
	MaxBurstInstr int64
}

// DefaultDaemon returns a light background load: typically a ~50 µs burst
// (at 4 GHz) every ~10 ms — cron, kernel threads, monitoring agents — with a
// heavy tail reaching a few milliseconds.
func DefaultDaemon() DaemonConfig {
	return DaemonConfig{Period: 10 * sim.Millisecond, BurstInstr: 200_000, MaxBurstInstr: 16_000_000}
}

// HeavyDaemon returns the physical-cluster proxy's noisier background load
// (shared cluster with real co-located services): more frequent and larger
// bursts than DefaultDaemon, calibrated so the proxy's 120-node latency tail
// is visibly fatter than DIABLO's (Figure 9) without dominating the 99th
// percentile.
func HeavyDaemon() DaemonConfig {
	return DaemonConfig{Period: 6 * sim.Millisecond, BurstInstr: 320_000, MaxBurstInstr: 28_000_000}
}

// StartDaemon starts the background-load thread on m. A zero Period or
// BurstInstr disables it (no thread is created).
func (m *Machine) StartDaemon(cfg DaemonConfig) *Thread {
	if cfg.Period <= 0 || cfg.BurstInstr <= 0 {
		return nil
	}
	if cfg.MaxBurstInstr <= 0 {
		cfg.MaxBurstInstr = 50 * cfg.BurstInstr
	}
	return m.Start("kdaemon", &daemon{cfg: cfg})
}

// daemon is the background-load program: it sleeps and bursts, alternately.
type daemon struct {
	cfg   DaemonConfig
	rng   *sim.Rand
	slept bool // the last call was the sleep: the burst is next
}

func (d *daemon) Next(t *Thread, _ *Result) bool {
	if d.rng == nil {
		d.rng = t.Rand().Fork("daemon")
	}
	if d.slept = !d.slept; d.slept {
		t.Sleep(d.rng.Exp(d.cfg.Period))
		return true
	}
	// Heavy-tailed burst (GP shape 0.7): mostly ~BurstInstr, with rare
	// multi-millisecond housekeeping.
	burst := int64(d.rng.Pareto(0, float64(d.cfg.BurstInstr), 0.7))
	t.Compute(min(max(burst, d.cfg.BurstInstr/4), d.cfg.MaxBurstInstr))
	return true
}
