package core

import (
	"bytes"
	"strings"
	"testing"

	"diablo/internal/kernel"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// TestEngineSelectionResultInvariance is the determinism gate for engine
// selection: the same multi-rack model run (a) sequentially on the shared
// queue, (b) partitioned under the barrier and (c) with the default options
// must produce byte-identical manifests once the engine-execution namespace
// is normalized away. That namespace is exactly:
// the topology fields (workers, partitions, quantum), the engine balance
// block, the executed-event count (the engines schedule their own sampling
// and barrier machinery), the partition*/... introspection series, and the
// stats hash (a digest that covers those series). Everything else — every
// model-owned series, histogram, fault edge and the elapsed clock — describes
// what the model did and must not depend on the engine.
func TestEngineSelectionResultInvariance(t *testing.T) {
	ocfg := ObserveConfig{TraceEvents: -1}
	manifest := func(name string, mut func(*MemcachedConfig)) []byte {
		cfg := observedMemcached()
		cfg.Partitions = 0
		mut(&cfg)
		_, o, err := RunMemcachedObserved(cfg, ocfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := o.BuildManifest("engine-invariance", cfg.Seed, nil)
		// Normalize the engine-execution namespace; see the test comment.
		m.Workers = 0
		m.Partitions = 0
		m.QuantumPs = 0
		m.Engine = nil
		m.Events = 0
		m.StatsHash = ""
		kept := m.Series[:0]
		for _, s := range m.Series {
			if !strings.HasPrefix(s.Name, "partition") {
				kept = append(kept, s)
			}
		}
		m.Series = kept
		if len(m.Series) == 0 {
			t.Fatalf("%s: no model-owned series left to compare", name)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return buf.Bytes()
	}
	seq := manifest("sequential", func(c *MemcachedConfig) { c.Sequential = true })
	for _, v := range []struct {
		name string
		mut  func(*MemcachedConfig)
	}{
		{"parallel-1", func(c *MemcachedConfig) { c.Partitions = 1 }},
		{"parallel-2", func(c *MemcachedConfig) { c.Partitions = 2 }},
		{"default", func(c *MemcachedConfig) {}},
	} {
		got := manifest(v.name, v.mut)
		if !bytes.Equal(got, seq) {
			i := 0
			for i < len(got) && i < len(seq) && got[i] == seq[i] {
				i++
			}
			lo := max(0, i-80)
			t.Errorf("%s manifest diverges from sequential near byte %d:\nseq: %q\n%s: %q",
				v.name, i, seq[lo:min(i+80, len(seq))], v.name, got[lo:min(i+80, len(got))])
		}
	}
}

// TestHaltAtTimeZero: a halt raised by a t = 0 event stops a multi-rack model
// at the first barrier, with the same clock and event count whether the
// partitions share one queue or run under the barrier. (The daemons give
// every machine work inside the first quantum, so the event count is not
// trivially the halting event alone.)
func TestHaltAtTimeZero(t *testing.T) {
	run := func(partitions int) (sim.Time, uint64) {
		cfg := DefaultConfig(topology.Params{ServersPerRack: 4, RacksPerArray: 2, Arrays: 1})
		cfg.Daemon = kernel.DefaultDaemon()
		c, err := New(cfg, WithPartitions(partitions))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.Scheduler().At(0, c.Halt)
		c.RunUntil(sim.Second)
		return c.Now(), c.Events()
	}
	seqNow, seqEvents := run(0)
	parNow, parEvents := run(2)
	if seqNow != sim.Time(1172*sim.Nanosecond) {
		t.Errorf("sequential run stopped at %v, want the first barrier at 1.172µs", seqNow)
	}
	if seqNow != parNow || seqEvents != parEvents {
		t.Errorf("sequential (%v, %d events) and partitioned (%v, %d events) halts differ",
			seqNow, seqEvents, parNow, parEvents)
	}
}
