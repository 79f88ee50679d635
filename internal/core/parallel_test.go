package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// parallelMemcached returns a fast multi-rack configuration for the
// determinism tests: 4 racks across 2 arrays, so the cluster carries rack
// partitions, a fabric partition, and a DC switch.
func parallelMemcached() MemcachedConfig {
	cfg := DefaultMemcached()
	cfg.Topology = topology.Params{ServersPerRack: 5, RacksPerArray: 2, Arrays: 2}
	cfg.ServersPerRack = 1
	cfg.RequestsPerClient = 12
	cfg.Warmup = 2
	return cfg
}

func TestMemcachedWorkerCountDeterminism(t *testing.T) {
	// The tentpole guarantee: the same seed yields byte-identical results at
	// 1, 2, and 4 parallel workers. The partition layout, quantum grid, and
	// cross-partition merge order are fixed by the topology, so worker count
	// is pure wall-clock parallelism.
	run := func(partitions int) *MemcachedResult {
		cfg := parallelMemcached()
		cfg.Partitions = partitions
		res, err := RunMemcached(cfg)
		if err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
		return res
	}
	want := run(1)
	if want.ClientsDone != want.Clients {
		t.Fatalf("baseline run incomplete: %d/%d clients", want.ClientsDone, want.Clients)
	}
	if want.Samples == 0 {
		t.Fatal("baseline run recorded no samples")
	}
	for _, p := range []int{2, 4} {
		got := run(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d diverged from partitions=1:\n got %+v\nwant %+v", p, got, want)
		}
	}
}

func TestClusterPartitionLayout(t *testing.T) {
	cfg := DefaultConfig(topology.Params{ServersPerRack: 4, RacksPerArray: 2, Arrays: 2})
	c, err := New(cfg, WithPartitions(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Parallel() {
		t.Fatal("multi-rack cluster did not build on the partitioned engine")
	}
	// 4 racks + 1 fabric partition; 8 requested workers clamp to 5, and to
	// the Ps there are to run them on.
	if got := c.Partitions(); got != 5 {
		t.Errorf("partitions = %d, want 5 (one per rack + fabric)", got)
	}
	if got, want := c.Workers(), min(5, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("workers = %d, want clamp to %d (partition count 5, GOMAXPROCS %d)", got, want, runtime.GOMAXPROCS(0))
	}
	// Default fabric: 500ns cable + min(1us port latency, 672ns min-frame
	// serialization at 1 Gbps) = 1.172us.
	if got := c.Quantum(); got != 1172*sim.Nanosecond {
		t.Errorf("quantum = %v, want 1.172us", got)
	}
	if c.Scheduler() == nil {
		t.Error("Scheduler() returned nil")
	}

	single, err := New(DefaultConfig(topology.Params{ServersPerRack: 4, RacksPerArray: 1, Arrays: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown()
	if single.Parallel() || single.Partitions() != 1 || single.Quantum() != 0 {
		t.Errorf("single-rack cluster should run serial: parallel=%v partitions=%d quantum=%v",
			single.Parallel(), single.Partitions(), single.Quantum())
	}
}

// The quantum is the derived lookahead: cable propagation plus the smaller
// of a switch's port-to-port latency and one minimum-frame serialization at
// the array rate, taking the smaller of the two ToR<->array directions.
func TestClusterQuantumIsLookahead(t *testing.T) {
	topo := topology.Params{ServersPerRack: 2, RacksPerArray: 2, Arrays: 1}
	lookahead := func(cfg Config) sim.Duration {
		ser := sim.TransmitTime((&packet.Packet{}).WireBytes(), cfg.Array.LinkRate)
		dir := func(p vswitch.Params) sim.Duration {
			return cfg.CableProp + min(p.PortLatency+p.ExtraLatency, ser)
		}
		return min(dir(cfg.ToR), dir(cfg.Array))
	}
	cases := []struct {
		name string
		set  func(*Config)
		want sim.Duration
	}{
		{"default", func(*Config) {}, 1172 * sim.Nanosecond},
		{"Use10G", (*Config).Use10G, 567200 * sim.Picosecond},
		{"ExtraSwitchLatency=100ns", func(c *Config) {
			for _, p := range []*vswitch.Params{&c.ToR, &c.Array, &c.DC} {
				p.ExtraLatency = 100 * sim.Nanosecond
			}
		}, 1172 * sim.Nanosecond},
		{"zero-latency ToR", func(c *Config) { c.ToR.PortLatency = 0 }, 500 * sim.Nanosecond},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(topo)
		tc.set(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := c.Quantum(); got != tc.want || got != lookahead(cfg) {
			t.Errorf("%s: quantum %v, want %v (lookahead formula %v)", tc.name, got, tc.want, lookahead(cfg))
		}
		c.Shutdown()
	}

	single, err := New(DefaultConfig(topology.Params{ServersPerRack: 4, RacksPerArray: 1, Arrays: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown()
	if q := single.Quantum(); q != 0 {
		t.Errorf("single-rack quantum = %v, want 0", q)
	}

	// Zero propagation through zero-latency switches leaves no lookahead.
	cfg := DefaultConfig(topo)
	cfg.CableProp = 0
	cfg.ToR.PortLatency, cfg.Array.PortLatency = 0, 0
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "no latency") {
		t.Errorf("zero-latency fabric: err = %v, want the no-latency error", err)
	}
}

func TestCrossRackTrafficRunsPartitioned(t *testing.T) {
	// End-to-end sanity on the partitioned path: cross-rack traffic flows
	// and the run is identical whether partitions execute on 1 or 4 workers.
	run := func(workers int) (sim.Time, uint64) {
		cfg := parallelMemcached()
		cfg.Partitions = workers
		cfg.RequestsPerClient = 6
		cfg.Warmup = 0
		res, err := RunMemcached(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Time(res.Elapsed), res.Samples
	}
	e1, s1 := run(1)
	e4, s4 := run(4)
	if e1 != e4 || s1 != s4 {
		t.Fatalf("workers changed the simulation: (%v, %d) vs (%v, %d)", e1, s1, e4, s4)
	}
	if s1 == 0 {
		t.Fatal("no samples flowed across the partitioned fabric")
	}
}
