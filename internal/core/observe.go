package core

// Observability wiring: attach an obs.Registry and an obs.Trace to a wired
// cluster. This file maps the model onto observable names and trace lanes:
//
//   - Each engine partition is one Chrome-trace process lane ("partition 3
//     (rack 3)", "... (fabric)"); per-node kernel/user/net/app activity
//     appears as threads inside its rack's lane.
//   - Registry instruments carry hierarchical names ("rack0/tor/port3/qdepth",
//     "partition2/executed") and are registered on the scheduler of the
//     partition that owns the observed state, which is what makes the
//     recorded series worker-count invariant (see package obs).
//   - Everything is opt-in and detachable: an unobserved cluster has nil
//     hooks everywhere and pays only nil checks.

import (
	"fmt"

	"diablo/internal/apps/memcache"
	"diablo/internal/kernel"
	"diablo/internal/obs"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/vswitch"
)

// ObserveConfig selects what an Observation collects. The zero value samples
// cluster-level gauges and traces every span source: kernel-context work
// (irq/softirq/tcp_tx), per-thread syscalls and packet lifetimes (first bit
// on the wire at the source NIC to socket demux at the destination).
type ObserveConfig struct {
	// TraceEvents bounds the trace buffer (0 = obs.DefaultTraceCapacity,
	// < 0 disables the trace entirely).
	TraceEvents int
}

// Observation is a registry plus trace attached to one cluster.
type Observation struct {
	Registry *obs.Registry
	Trace    *obs.Trace

	cluster  *Cluster
	finished bool
}

// Observe wires an Observation into a cluster. Call after New and before the
// run: from the OnCluster hook of MemcachedConfig or IncastConfig, whose run
// functions then trace every request or iteration and finish the
// observation, or on a hand-driven cluster, which calls Finish after its run.
func Observe(c *Cluster, cfg ObserveConfig) *Observation {
	o := &Observation{
		Registry: obs.NewRegistry(),
		cluster:  c,
	}
	c.observation = o
	if cfg.TraceEvents >= 0 {
		o.Trace = obs.NewTrace(cfg.TraceEvents)
	}

	topo := c.Topo
	c.pe.EnableIntrospection()

	// Partition lanes, with per-partition dispatched events and queue
	// occupancy sampled on the partition itself. The fabric partition (array
	// + DC switches) follows the racks; every rack partition is named after
	// its rack.
	fabric := topo.Racks()
	for i := 0; i < c.pe.Partitions(); i++ {
		name := fmt.Sprintf("partition %d (rack %d)", i, i)
		if i == fabric {
			name = fmt.Sprintf("partition %d (fabric)", i)
		}
		o.Trace.SetProcessName(i, name)
		p := c.pe.Partition(i)
		o.Registry.GaugeFunc(p, fmt.Sprintf("partition%d/executed", i), func() float64 {
			return float64(p.Executed())
		})
		o.Registry.GaugeFunc(p, fmt.Sprintf("partition%d/pending", i), func() float64 {
			return float64(p.QueueStats().Total())
		})
	}

	// Switch gauges. Each ToR lives on its rack's partition; array and DC
	// switches live on the fabric partition.
	sched := c.pe.Partition
	for r, sw := range c.Tors {
		o.observeSwitch(sched(r), fmt.Sprintf("rack%d/tor", r), sw)
	}
	for a, sw := range c.Arrays {
		o.observeSwitch(sched(fabric), fmt.Sprintf("array%d", a), sw)
	}
	if c.DC != nil {
		o.observeSwitch(sched(fabric), "dc", c.DC)
	}

	// Inter-partition uplink byte counters: the ToR->array direction is
	// owned by the rack partition, the array->ToR direction by the fabric.
	if topo.MultiRack() {
		upPort := topo.TorUplinkPort()
		for r := 0; r < topo.Racks(); r++ {
			up := c.Tors[r].OutputLink(upPort)
			o.Registry.GaugeFunc(sched(r), fmt.Sprintf("rack%d/uplink/tx_bytes", r), func() float64 {
				return float64(up.Stats.Bytes)
			})
			down := c.Arrays[topo.ArrayOf(r)].OutputLink(topo.RackInArray(r))
			o.Registry.GaugeFunc(sched(fabric), fmt.Sprintf("rack%d/downlink/tx_bytes", r), func() float64 {
				return float64(down.Stats.Bytes)
			})
		}
	}

	// Per-node trace hooks, emitting into the rack's partition lane.
	if o.Trace != nil {
		for _, m := range c.Machines {
			o.traceMachine(m, topo.RackOf(m.Node()), m.Node())
		}
	}

	o.Registry.Start()
	return o
}

// observeSwitch registers queue-depth and buffer gauges for one switch.
func (o *Observation) observeSwitch(sched sim.Scheduler, prefix string, sw *vswitch.Switch) {
	o.Registry.GaugeFunc(sched, prefix+"/occupied_bytes", func() float64 {
		return float64(sw.Occupied())
	})
	o.Registry.GaugeFunc(sched, prefix+"/queued_pkts", func() float64 {
		return float64(sw.QueuedPackets())
	})
	for i := 0; i < sw.Params().Ports; i++ {
		port := i
		o.Registry.GaugeFunc(sched, fmt.Sprintf("%s/port%d/qdepth", prefix, port), func() float64 {
			return float64(sw.PortQueueDepth(port))
		})
	}
}

// traceMachine installs the machine's span hooks, emitting into the rack's
// partition lane.
func (o *Observation) traceMachine(m *kernel.Machine, pid int, node packet.NodeID) {
	tr := o.Trace
	kernelTid := fmt.Sprintf("node%d kernel", node)
	m.OnKernelSpan = func(kind kernel.KernelSpanKind, start sim.Time, d sim.Duration) {
		tr.Span(pid, kernelTid, "kernel", kind.String(), start, d)
	}
	userTid := fmt.Sprintf("node%d user", node)
	m.OnSyscallSpan = func(thread string, start sim.Time, d sim.Duration) {
		tr.Span(pid, userTid, "syscall", thread, start, d)
	}
	netTid := fmt.Sprintf("node%d net", node)
	m.OnPacketDelivered = func(pkt *packet.Packet, at sim.Time) {
		// Loopback packets never cross a NIC, so SentAt stays zero.
		if pkt.SentAt <= 0 || at < pkt.SentAt {
			return
		}
		name := fmt.Sprintf("%s %d->%d", protoName(pkt.Proto), pkt.Src.Node, pkt.Dst.Node)
		tr.Span(pid, netTid, "packet", name, pkt.SentAt, at.Sub(pkt.SentAt))
	}
}

func protoName(p packet.Proto) string {
	switch p {
	case packet.ProtoUDP:
		return "udp"
	case packet.ProtoTCP:
		return "tcp"
	default:
		return "pkt"
	}
}

// traceRequest renders one memcached client sample as a span on the client's
// app lane, with an instant if it was retried. It fires on the client
// machine's partition; a nil Observation (unobserved run) ignores it.
func (o *Observation) traceRequest(node packet.NodeID, s memcache.Sample) {
	if o == nil || o.Trace == nil {
		return
	}
	pid := o.cluster.Topo.RackOf(node)
	tid := fmt.Sprintf("node%d app", node)
	end := o.cluster.Machine(node).Now()
	o.Trace.Span(pid, tid, "request", s.Op.String(), end.Add(-s.Latency), s.Latency)
	if s.Retried {
		o.Trace.Instant(pid, tid, "request", "retry", end)
	}
}

// traceIteration renders one incast iteration as a span on the client's
// (node 0's) app lane.
func (o *Observation) traceIteration(iter int, start, end sim.Time) {
	o.Trace.Span(0, "node0 app", "iteration", fmt.Sprintf("iteration %d", iter), start, end.Sub(start))
}

// Finish seals the observation after the run: sampling stops and the fault
// edges recorded by the cluster render as global trace instants (vertical
// lines across every lane in Perfetto). Finishing twice, or a nil
// Observation, is a no-op.
func (o *Observation) Finish() {
	if o == nil || o.finished {
		return
	}
	o.finished = true
	o.Registry.Stop()
	for _, e := range o.cluster.FaultEdges() {
		o.Trace.GlobalInstant("fault", e.Where, e.At, map[string]string{"detail": e.Detail})
	}
}

// BuildManifest assembles the machine-readable run record. Call after
// Finish. The config map should carry the experiment's knobs (the typed
// configs hold function hooks, so callers flatten them to data here).
func (o *Observation) BuildManifest(experiment string, seed uint64, config map[string]any) *obs.Manifest {
	c := o.cluster
	m := &obs.Manifest{
		Schema:     obs.ManifestSchema,
		Experiment: experiment,
		Seed:       seed,
		Config:     config,
		Workers:    c.Workers(),
		Partitions: c.Partitions(),
		QuantumPs:  int64(c.Quantum()),
		ElapsedPs:  int64(c.Now()),
		Events:     c.Events(),
		StatsHash:  o.Registry.Hash(),
		Series:     obs.SeriesFromRegistry(o.Registry),
	}
	m.Engine = obs.EngineFromIntrospection(c.pe.Introspection()) // Observe enabled it
	for _, e := range c.FaultEdges() {
		m.FaultEdges = append(m.FaultEdges, obs.FaultEdgeJSON{
			AtPs: int64(e.At), Where: e.Where, Detail: e.Detail,
		})
	}
	return m
}

// RunMemcachedObserved is RunMemcached with Observe(c, ocfg) chained after
// cfg.OnCluster; it returns the finished Observation. It adds nothing to that
// pair and exists only because the benchmark harness (bench/report.go)
// calls it.
func RunMemcachedObserved(cfg MemcachedConfig, ocfg ObserveConfig) (*MemcachedResult, *Observation, error) {
	var o *Observation
	prev := cfg.OnCluster
	cfg.OnCluster = func(c *Cluster) {
		if prev != nil {
			prev(c)
		}
		o = Observe(c, ocfg)
	}
	res, err := RunMemcached(cfg)
	return res, o, err
}
