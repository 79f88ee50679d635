// Package core is DIABLO's primary contribution rendered in software: the
// cluster simulator that composes the abstract performance models — fixed-CPI
// servers running a simulated kernel, NIC models, and the switch hierarchy —
// into a full WSC array (paper §3), plus the experiment harness reproducing
// the paper's case studies (§4).
package core

import (
	"fmt"
	"sync"

	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/link"
	"diablo/internal/nic"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// Config describes a complete simulated array.
type Config struct {
	// Topology sizes the Clos array.
	Topology topology.Params

	// Server configures every machine (CPU, kernel profile, NIC, TCP).
	Server kernel.Config

	// ToR, Array and DC are the switch models per level. Ports counts are
	// filled by the builder from the topology; the other parameters (rate,
	// latency, buffering, architecture) are taken as given.
	ToR, Array, DC vswitch.Params

	// CableProp is the per-hop propagation delay (cable length).
	CableProp sim.Duration

	// Daemon configures per-server background load (zero disables).
	Daemon kernel.DaemonConfig

	// Seed is the master seed; every machine derives its own streams.
	Seed uint64
}

// DefaultConfig returns the paper's baseline: 1 Gbps interconnect with 1 µs
// port-to-port switches (§4.1/4.2), 4 GHz fixed-CPI servers, Linux 2.6.39.
// Aggregation levels differ only in buffering (paper §3.3: switch layers
// "differ only in their link latency, bandwidth, and buffer configuration
// parameters"): array and datacenter switches carry the deep buffers of
// their hardware class, consistent with §4.2's observation of no switch
// buffer overruns under the memcached load.
func DefaultConfig(topo topology.Params) Config {
	array := vswitch.Gigabit1GShallow("array", 0)
	array.BufferPerPort = 64 * 1024
	dc := vswitch.Gigabit1GShallow("dc", 0)
	dc.BufferPerPort = 256 * 1024
	return Config{
		Topology:  topo,
		Server:    kernel.DefaultConfig(),
		ToR:       vswitch.Gigabit1GShallow("tor", 0),
		Array:     array,
		DC:        dc,
		CableProp: 500 * sim.Nanosecond,
		Seed:      1,
	}
}

// Use10G switches every level to the low-latency 10 Gbps fabric (10x
// bandwidth, 10x lower latency, §4.2 "Impact of network hardware").
func (c *Config) Use10G() {
	for _, p := range []*vswitch.Params{&c.ToR, &c.Array, &c.DC} {
		p.LinkRate = 10_000_000_000
		p.PortLatency = 100 * sim.Nanosecond
	}
}

// Cluster is a fully wired simulated array.
//
// The model is partitioned DIABLO-style — one partition per rack plus one
// "fabric" partition holding the array and datacenter switches (the paper's
// one-rack-per-FPGA mapping, §3); a single-rack cluster is one partition. One
// engine drives it either way: sequentially, with every partition on one
// event queue, or under conservative quantum-barrier synchronization with the
// partitions spread over OS threads. Results are identical in both modes and
// at any worker count.
type Cluster struct {
	Topo     *topology.Topology
	Machines []*kernel.Machine
	Tors     []*vswitch.Switch
	Arrays   []*vswitch.Switch
	DC       *vswitch.Switch

	cfg  Config
	opts options

	pe      *sim.ParallelEngine
	quantum sim.Duration // barrier quantum (0 on a single-rack cluster)

	// pools[i] is partition i's packet slab pool (nil slice = unpooled heap
	// mode). Every component wired into partition i allocates and releases
	// through pools[i], so no pool is ever touched by two workers; packets
	// crossing partitions are released into the releasing partition's pool
	// and only the summed stats balance (see packet.PoolStats).
	pools []*packet.Pool

	// Fault-layer state: edges fire on worker goroutines in a partitioned
	// run, so recording is mutex-guarded; FaultEdges sorts before returning.
	faultMu    sync.Mutex
	faultEdges []FaultEdge

	// observation is the one Observe attached (nil = unobserved). RunMemcached
	// and RunIncast feed it their request or iteration spans and finish it.
	observation *Observation
}

// Option customizes cluster execution without touching the model Config.
type Option func(*options)

type options struct {
	workers  int
	quantum  sim.Duration
	faults   *fault.Plan
	unpooled bool
}

// WithPartitions runs the partitions under the quantum barrier on n OS-level
// workers (clamped to the partition count and to GOMAXPROCS). n <= 0 (the
// default) runs the model sequentially, every partition on one event queue.
// The partition layout itself is fixed by the topology — one partition per
// rack plus the aggregation fabric — and neither mode nor worker count may
// affect simulation results, so this knob changes wall-clock speed only. It
// has no effect on single-rack clusters, which are one partition.
func WithPartitions(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithQuantum overrides the synchronization quantum. The default — the
// minimum latency of any inter-partition link — is the largest safe value;
// New rejects overrides above it (they would violate conservative
// lookahead) or below 1 ps. A sequential run steps along the same grid, so
// the override applies there too.
func WithQuantum(d sim.Duration) Option {
	return func(o *options) { o.quantum = d }
}

// WithoutPacketPools disables the per-partition packet slab pools: every
// packet is a fresh heap allocation and releases are no-ops. Results are
// byte-identical to the pooled run (the invariance gates assert this); the
// knob exists for that comparison and for allocation-profile baselines.
func WithoutPacketPools() Option {
	return func(o *options) { o.unpooled = true }
}

// New builds and wires a cluster.
func New(cfg Config, opts ...Option) (*Cluster, error) {
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if err := cfg.Server.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Topo: topo, cfg: cfg}
	for _, opt := range opts {
		opt(&c.opts)
	}

	tp := topo.Params()
	multiRack := topo.MultiRack()
	multiArray := topo.MultiArray()

	// Partition layout and schedulers. sched(i) is partition i's local
	// scheduler; cross(src, dst) schedules from partition src's event context
	// onto partition dst (used for the delivery side of partition-crossing
	// links). The layout is fixed by the topology; WithPartitions only picks
	// whether the partitions share one queue or run under the barrier.
	partitions := 1
	grid := sim.Picosecond // a one-partition engine has no barrier: any grid does
	if multiRack {
		partitions = topo.Racks() + 1
		if grid, err = c.lookahead(); err != nil {
			return nil, err
		}
		if c.opts.quantum != 0 {
			if c.opts.quantum <= 0 {
				return nil, fmt.Errorf("core: quantum must be positive")
			}
			if c.opts.quantum > grid {
				return nil, fmt.Errorf("core: quantum %v exceeds the minimum inter-partition link latency %v (conservative lookahead bound)", c.opts.quantum, grid)
			}
			grid = c.opts.quantum
		}
		c.quantum = grid
	}
	c.pe = sim.NewParallelEngine(partitions, grid)
	if c.opts.workers > 0 {
		c.pe.SetWorkers(c.opts.workers)
	} else {
		c.pe.ShareQueue()
	}
	sched := c.pe.Partition
	cross := func(src, dst int) sim.Scheduler {
		if src == dst {
			return sched(src)
		}
		return c.pe.Cross(src, dst)
	}

	// Register the model packages' typed-event jump table before any
	// component schedules (kernel cascades to nic and link; vswitch to link).
	kernel.RegisterEventHandlers(c.pe)
	vswitch.RegisterEventHandlers(c.pe)

	fabric := topo.Racks() // partition holding array + DC switches

	// Packet slab pools, one per partition (see the pools field). Components
	// get the pool of the partition whose event context touches them:
	// machines, NICs, ToRs and rack-side link transmit paths use their rack's
	// pool; the fabric switches and their egress links use the fabric's.
	var pool func(part int) *packet.Pool
	if c.opts.unpooled {
		pool = func(int) *packet.Pool { return nil }
	} else {
		c.pools = make([]*packet.Pool, partitions)
		for i := range c.pools {
			c.pools[i] = packet.NewPool()
		}
		pool = func(part int) *packet.Pool { return c.pools[part] }
	}

	// Build switches.
	torPorts := tp.ServersPerRack
	if multiRack {
		torPorts++
	}
	for r := 0; r < topo.Racks(); r++ {
		params := cfg.ToR
		params.Name = fmt.Sprintf("tor-%d", r)
		params.Ports = torPorts
		sw, err := vswitch.New(sched(r), params)
		if err != nil {
			return nil, err
		}
		sw.SetPool(pool(r))
		c.Tors = append(c.Tors, sw)
	}
	if multiRack {
		arrayPorts := tp.RacksPerArray
		if multiArray {
			arrayPorts++
		}
		for a := 0; a < topo.Arrays(); a++ {
			params := cfg.Array
			params.Name = fmt.Sprintf("array-%d", a)
			params.Ports = arrayPorts
			sw, err := vswitch.New(sched(fabric), params)
			if err != nil {
				return nil, err
			}
			sw.SetPool(pool(fabric))
			c.Arrays = append(c.Arrays, sw)
		}
	}
	if multiArray {
		params := cfg.DC
		params.Name = "dc"
		params.Ports = tp.Arrays
		sw, err := vswitch.New(sched(fabric), params)
		if err != nil {
			return nil, err
		}
		sw.SetPool(pool(fabric))
		c.DC = sw
	}

	// Build servers and edge links; a machine, its NIC and both edge links
	// live wholly inside the rack's partition.
	for n := 0; n < topo.Servers(); n++ {
		node := packet.NodeID(n)
		rack := topo.RackOf(node)
		idx := topo.IndexInRack(node)
		tor := c.Tors[rack]
		rsched := sched(rack)

		up := link.New(rsched, tor.Input(idx), cfg.ToR.LinkRate, cfg.CableProp)
		up.SetPool(pool(rack))
		dev, err := nic.New(rsched, cfg.Server.NIC, up)
		if err != nil {
			return nil, err
		}
		dev.SetPool(pool(rack))
		m, err := kernel.New(rsched, node, cfg.Server, topo, dev, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m.SetPool(pool(rack))
		down := link.New(rsched, dev, cfg.ToR.LinkRate, cfg.CableProp)
		down.SetPool(pool(rack))
		tor.AttachOutput(idx, down)
		c.Machines = append(c.Machines, m)

		if cfg.Daemon.Period > 0 && cfg.Daemon.BurstInstr > 0 {
			m.StartDaemon(cfg.Daemon)
		}
	}

	// Wire ToR <-> array uplinks. These are the partition-crossing links:
	// transmit-side bookkeeping stays on the sender's partition, while the
	// delivery event is routed to the receiving partition at the next quantum
	// barrier.
	if multiRack {
		upPort := topo.TorUplinkPort()
		for r := 0; r < topo.Racks(); r++ {
			a := topo.ArrayOf(r)
			localIdx := topo.RackInArray(r)
			arr := c.Arrays[a]

			up := link.New(sched(r), arr.Input(localIdx), cfg.Array.LinkRate, cfg.CableProp)
			up.SetDeliverySched(cross(r, fabric))
			up.SetPool(pool(r)) // transmit side (fault drops) runs on rack r
			c.Tors[r].AttachOutput(upPort, up)

			down := link.New(sched(fabric), c.Tors[r].Input(upPort), cfg.Array.LinkRate, cfg.CableProp)
			down.SetDeliverySched(cross(fabric, r))
			down.SetPool(pool(fabric))
			arr.AttachOutput(localIdx, down)
		}
	}
	// Wire array <-> DC uplinks (both ends live in the fabric partition).
	if multiArray {
		upPort := topo.ArrayUplinkPort()
		fsched := sched(fabric)
		for a := 0; a < topo.Arrays(); a++ {
			up := link.New(fsched, c.DC.Input(a), cfg.DC.LinkRate, cfg.CableProp)
			up.SetPool(pool(fabric))
			c.Arrays[a].AttachOutput(upPort, up)
			down := link.New(fsched, c.Arrays[a].Input(upPort), cfg.DC.LinkRate, cfg.CableProp)
			down.SetPool(pool(fabric))
			c.DC.AttachOutput(a, down)
		}
	}

	// Install the fault schedule last, over the fully wired topology. Every
	// fault edge lands on its target's own partition scheduler, so this adds
	// no cross-partition traffic and cannot shrink the derived quantum.
	if err := fault.Install(c.opts.faults, c, c.recordFaultEdge); err != nil {
		return nil, err
	}
	return c, nil
}

// lookahead computes the largest safe synchronization quantum: the minimum,
// over all partition-crossing links (the ToR<->array uplinks), of
//
//	propagation + min(sender port latency, min-frame serialization time)
//
// Propagation is a hard floor on any cross-partition effect. On top of it,
// a frame leaving a switch egress cannot be delivered sooner than the
// sender's port-to-port latency after the dispatch decision (the cut-through
// case: an egress start is backdated at most to first-bit arrival, and
// cut-through requires the egress serialization to cover the ingress), nor
// sooner than one minimum-frame serialization after a busy port frees up.
func (c *Cluster) lookahead() (sim.Duration, error) {
	minWire := (&packet.Packet{}).WireBytes() // minimum frame + preamble/IFG
	serMin := sim.TransmitTime(minWire, c.cfg.Array.LinkRate)
	lat := func(p vswitch.Params) sim.Duration {
		d := p.PortLatency + p.ExtraLatency
		if serMin < d {
			d = serMin
		}
		return d
	}
	q := c.cfg.CableProp + lat(c.cfg.ToR) // ToR -> array direction
	if d := c.cfg.CableProp + lat(c.cfg.Array); d < q {
		q = d // array -> ToR direction
	}
	if q <= 0 {
		return 0, fmt.Errorf("core: inter-rack links have no latency (prop %v): cannot derive a positive synchronization quantum", c.cfg.CableProp)
	}
	return q, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Machine returns the machine for a node.
func (c *Cluster) Machine(n packet.NodeID) *kernel.Machine { return c.Machines[n] }

// Scheduler returns the cluster's event scheduler: the handle of the last
// partition (the fabric's on a multi-rack cluster). Use it to read the clock
// or schedule global events before the run starts; during a run, model code
// must schedule through its own machine's Scheduler() instead.
func (c *Cluster) Scheduler() sim.Scheduler { return c.pe.Partition(c.pe.Partitions() - 1) }

// Parallel reports whether the partitions execute under the quantum barrier
// (WithPartitions on a multi-rack topology) rather than on one shared queue.
func (c *Cluster) Parallel() bool { return c.opts.workers > 0 && c.pe.Partitions() > 1 }

// Partitions returns the number of model partitions (1 on a single rack).
func (c *Cluster) Partitions() int { return c.pe.Partitions() }

// Workers returns the number of OS-level workers executing partitions: what
// WithPartitions asked for, after clamping.
func (c *Cluster) Workers() int { return c.pe.Workers() }

// Quantum returns the synchronization quantum (0 on a single-rack cluster).
func (c *Cluster) Quantum() sim.Duration { return c.quantum }

// Now returns the simulated time: the last completed quantum barrier on a
// multi-rack cluster, the engine clock on a single rack.
func (c *Cluster) Now() sim.Time { return c.pe.Now() }

// RunUntil advances the simulation to the deadline.
func (c *Cluster) RunUntil(d sim.Duration) { c.pe.RunUntil(sim.Time(d)) }

// Run advances the simulation until the event queues drain or Halt.
func (c *Cluster) Run() { c.pe.RunUntil(sim.Never) }

// Halt stops the run at the next quantum barrier (safe from any machine's
// event context): every event up to that barrier still runs, so the halt
// instant, the event count and the observation tail do not depend on how the
// partitions are executed. A single-rack cluster has no barrier and stops
// after the current event.
func (c *Cluster) Halt() { c.pe.Halt() }

// Shutdown ends all application threads (unwinding Spawn coroutines; no app
// code runs). Call once per cluster when the experiment is done; the engine
// must be stopped.
func (c *Cluster) Shutdown() {
	for _, m := range c.Machines {
		m.Shutdown()
	}
}

// Events returns the total number of events dispatched since creation. Call
// after the run has returned.
func (c *Cluster) Events() uint64 { return c.pe.Executed }

// Pooled reports whether packet slab pooling is active.
func (c *Cluster) Pooled() bool { return c.pools != nil }

// PacketPoolStats sums the slab-pool counters across every partition pool
// (all zeros in unpooled mode). Packets migrate between pools — allocated on
// the creator's partition, released on the consumer's — so only the summed
// Gets/Releases balance; after ReleaseInFlight the sum's Live() must be zero
// or packets leaked (the leak-balance gate asserts exactly this).
func (c *Cluster) PacketPoolStats() packet.PoolStats {
	var sum packet.PoolStats
	for _, p := range c.pools {
		sum.Add(p.Stats())
	}
	return sum
}

// ReleaseInFlight returns every packet stranded mid-flight by a stopped run
// to the pools: machine qdiscs and kernel work queues, NIC descriptor rings,
// switch output queues, and the frames carried by still-queued EvPacketHop /
// EvLoopback events on every engine. Call only after the run has stopped,
// for leak accounting; the cluster must not run again afterwards.
func (c *Cluster) ReleaseInFlight() {
	if c.pools == nil {
		return
	}
	for _, m := range c.Machines {
		m.ReleaseInFlight()
		m.NIC().ReleaseInFlight()
	}
	for _, sw := range c.Tors {
		sw.ReleaseInFlight()
	}
	for _, sw := range c.Arrays {
		sw.ReleaseInFlight()
	}
	if c.DC != nil {
		c.DC.ReleaseInFlight()
	}
	// Frames in flight on a wire live only in the event queues; only the
	// pools' summed ledger balances, so any pool can take them.
	c.pe.ForEachPending(func(ev sim.Event) {
		if ev.Kind == sim.EvPacketHop || ev.Kind == sim.EvLoopback {
			c.pools[0].Release(ev.Ref.(*packet.Packet))
		}
	})
}

// SwitchDrops sums dropped packets across all switches.
func (c *Cluster) SwitchDrops() uint64 {
	var total uint64
	for _, sw := range c.Tors {
		total += sw.Stats.Dropped.Packets
	}
	for _, sw := range c.Arrays {
		total += sw.Stats.Dropped.Packets
	}
	if c.DC != nil {
		total += c.DC.Stats.Dropped.Packets
	}
	return total
}
