package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"diablo/internal/kernel"
	"diablo/internal/packet"
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

// haltModel is a two-rack model busy in every quantum: daemons on every
// machine and a UDP ping-pong between the racks, so cross-partition packets
// are in flight whenever the run halts. workers = 0 shares one queue.
func haltModel(t *testing.T, workers int) *Cluster {
	t.Helper()
	cfg := DefaultConfig(topology.Params{ServersPerRack: 4, RacksPerArray: 2, Arrays: 1})
	cfg.Daemon = kernel.DefaultDaemon()
	c, err := New(cfg, WithPartitions(workers))
	if err != nil {
		t.Fatal(err)
	}
	server := packet.Addr{Node: 4, Port: 9000}
	c.Machines[server.Node].Spawn("echo", func(th *kernel.Thread) {
		sock, _ := th.UDPSocket(server.Port)
		for {
			from, n, msg, err := sock.RecvFrom(th)
			if err != nil {
				return
			}
			_ = sock.SendTo(th, from, n, msg)
		}
	})
	c.Machines[0].Spawn("ping", func(th *kernel.Thread) {
		sock, _ := th.UDPSocket(0)
		for i := range 1000 {
			if sock.SendTo(th, server, 100, packet.Msg{A: uint64(i)}) != nil {
				return
			}
			if _, _, _, err := sock.RecvFrom(th); err != nil {
				return
			}
		}
	})
	return c
}

// TestHaltOnQuantumGrid halts a multi-rack model at t = 0, mid-quantum,
// exactly on a barrier and in a quantum the deadline cuts short. The shared
// queue runs straight through rather than quantum by quantum, so its halt
// must still stop at the end of the halting quantum: the same instant, after
// the same events and with the same model state as the partitioned run at
// one and two workers. (The daemons give every machine work inside the first
// quantum, so even the t = 0 halt is not trivially the halting event alone.)
func TestHaltOnQuantumGrid(t *testing.T) {
	const q = 1172 * sim.Nanosecond // the default model's quantum
	type outcome struct {
		now    sim.Time
		events uint64
		state  string
	}
	run := func(workers int, haltAt sim.Time, deadline sim.Duration) outcome {
		c := haltModel(t, workers)
		defer c.Shutdown()
		if c.Quantum() != q {
			t.Fatalf("quantum %v, want %v", c.Quantum(), q)
		}
		c.Scheduler().At(haltAt, c.Halt)
		c.RunUntil(deadline)
		var state strings.Builder
		for _, m := range c.Machines {
			fmt.Fprintf(&state, "%+v %+v %+v\n", m.Stats, m.NIC().Stats, m.Util)
		}
		fmt.Fprintf(&state, "drops %d", c.SwitchDrops())
		return outcome{c.Now(), c.Events(), state.String()}
	}
	for _, tc := range []struct {
		name     string
		haltAt   sim.Time
		deadline sim.Duration
		want     sim.Time
	}{
		{"at zero", 0, sim.Second, sim.Time(q)},
		{"mid-quantum", sim.Time(20*q + q/3), sim.Second, sim.Time(21 * q)},
		{"on a barrier", sim.Time(30 * q), sim.Second, sim.Time(30 * q)},
		{"deadline inside the quantum", sim.Time(40*q + 100*sim.Nanosecond), 40*q + q/2, sim.Time(40*q + q/2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := run(0, tc.haltAt, tc.deadline)
			if seq.now != tc.want {
				t.Errorf("sequential run stopped at %v, want %v", seq.now, tc.want)
			}
			for _, workers := range []int{1, 2} {
				if par := run(workers, tc.haltAt, tc.deadline); par != seq {
					t.Errorf("sequential (%v, %d events) and %d-worker (%v, %d events) halts differ; state equal: %v",
						seq.now, seq.events, workers, par.now, par.events, par.state == seq.state)
				}
			}
		})
	}
}

// TestCrossSendLookahead: a cross-partition send is held to the exact
// lookahead bound in every mode, the un-stepped shared queue included. From
// the first quantum (0, q], a send at q - 1 ps panics and one at q is
// accepted; a deadline inside the quantum ends it early, so a send at the
// deadline is accepted too.
func TestCrossSendLookahead(t *testing.T) {
	const q = sim.Time(1172 * sim.Nanosecond)
	for _, tc := range []struct {
		at       sim.Time
		deadline sim.Duration
		panics   bool
	}{
		{q - 1, sim.Millisecond, true},
		{q, sim.Millisecond, false},
		{q - 1, sim.Duration(q - 1), false},
	} {
		for _, workers := range []int{0, 1, 2} {
			c, err := New(DefaultConfig(topology.Params{ServersPerRack: 2, RacksPerArray: 2, Arrays: 1}), WithPartitions(workers))
			if err != nil {
				t.Fatal(err)
			}
			fabric := c.Partitions() - 1
			c.pe.Partition(0).At(sim.Time(500*sim.Nanosecond), func() { c.pe.Send(0, fabric, tc.at, func() {}) })
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.RunUntil(tc.deadline)
				return
			}()
			if panicked != tc.panics {
				t.Errorf("workers %d, deadline %v: send at %v panicked = %v, want %v", workers, tc.deadline, tc.at, panicked, tc.panics)
			}
			c.Shutdown()
		}
	}
}
