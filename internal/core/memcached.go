package core

import (
	"fmt"
	"sync"

	"diablo/internal/apps/memcache"
	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/workload"
)

// MemcachedConfig parameterizes a §4.2-style memcached experiment on the
// Figure 7 topology: 31 servers/rack, 16 racks/array, a configurable number
// of arrays, with 2 memcached servers and 29 clients per rack.
type MemcachedConfig struct {
	// Arrays sets the scale: 1 -> 496 nodes ("500"), 2 -> 992 ("1000"),
	// 4 -> 1984 ("2000").
	Arrays int
	// Topology, when non-zero, overrides the paper's fixed 31x16 Clos shape
	// entirely (Arrays is then ignored). This is the campaign sweep's
	// topology/oversubscription axis: ServersPerRack sets the rack
	// over-subscription, RacksPerArray the array over-subscription.
	Topology topology.Params
	// ServersPerRack is the number of memcached server nodes per rack (2).
	ServersPerRack int
	// Proto selects UDP or TCP clients.
	Proto memcache.Proto
	// RequestsPerClient is the per-client request count (paper: 30K; the
	// benches default lower — see DESIGN.md's reduced-scale policy).
	RequestsPerClient int
	// Workers is the memcached worker thread count (paper: 4 or 8).
	Workers int
	// Version is the memcached release profile.
	Version memcache.Version
	// Profile is the kernel version.
	Profile kernel.Profile
	// Use10G upgrades the interconnect (10x bandwidth, 1/10 latency).
	Use10G bool
	// ExtraSwitchLatency adds port-to-port latency at every level
	// (Figure 12's +50/+100 ns knob).
	ExtraSwitchLatency sim.Duration
	// ChurnEvery cycles client TCP connections every N requests.
	ChurnEvery int
	// Daemon is the per-node background load.
	Daemon kernel.DaemonConfig
	// Workload overrides the ETC parameters (zero value = ETC defaults).
	Workload workload.ETCParams
	// Warmup discards each client's first N samples (cold caches, cold
	// TCP windows).
	Warmup int
	// StartSpread staggers client start times; it should be small relative
	// to the active window so load fully overlaps (util matches the paper's
	// "moderate, under 50%" when clients genuinely run concurrently).
	StartSpread sim.Duration
	// MaxClients bounds the number of client nodes actually loaded
	// (0 = every non-server node). Used by the Figure 8 load sweep.
	MaxClients int
	// NICRxITR overrides the NIC interrupt-mitigation timer on every node
	// (<0 disables mitigation, 0 keeps the e1000 default). An ablation knob.
	NICRxITR sim.Duration
	// Partitions sets the number of OS-level workers executing the
	// partitioned cluster in parallel (0 = run sequentially). Results are
	// identical at any worker count and in either mode; see
	// core.WithPartitions.
	Partitions int
	// Sequential ignores Partitions: the run is sequential whatever it says.
	Sequential bool
	// Unpooled disables the packet slab pools (see core.WithoutPacketPools).
	// Results are identical either way; the knob exists for the pooled-vs-
	// unpooled invariance gate and allocation-profile baselines.
	Unpooled bool
	// Seed is the master seed.
	Seed uint64
	// Deadline bounds simulated time (0 = auto-estimated).
	Deadline sim.Duration
	// Faults is an optional fault schedule injected into the run (nil =
	// healthy cluster). See package fault.
	Faults *fault.Plan
	// OnCluster, if set, observes the wired cluster before the run starts —
	// the hook for attaching tracers and custom instrumentation. An
	// Observation attached here with Observe gets a span per request
	// (warmup included) and is finished when RunMemcached returns.
	OnCluster func(*Cluster)
}

// DefaultMemcached returns the paper's 2,000-node UDP configuration at a
// reduced request count.
func DefaultMemcached() MemcachedConfig {
	return MemcachedConfig{
		Arrays:            4,
		ServersPerRack:    2,
		Proto:             memcache.UDP,
		RequestsPerClient: 100,
		Workers:           4,
		Version:           memcache.V1417(),
		Profile:           kernel.Linux2639(),
		Daemon:            kernel.DefaultDaemon(),
		Workload:          workload.ETC(),
		Warmup:            5,
		StartSpread:       20 * sim.Millisecond,
		Seed:              1,
	}
}

// MemcachedResult aggregates an experiment's observations.
type MemcachedResult struct {
	Overall *metrics.Histogram
	ByHop   map[topology.HopClass]*metrics.Histogram

	Samples     uint64
	Retried     uint64
	Clients     int
	ClientsDone int
	Servers     int
	Elapsed     sim.Duration
	MeanUtil    float64 // mean server-node CPU utilization
	SwitchDrops uint64

	// Attempted counts every issued request; Completed counts those that got
	// a response (including warmup samples the histograms discard). Their
	// difference is the requests lost outright — nonzero only when the fault
	// layer (or a pathological overload) exhausts the UDP retry budget.
	Attempted  uint64
	Completed  uint64
	FaultDrops uint64      // frames removed by the fault layer
	FaultEdges []FaultEdge // fault transitions that fired during the run
}

// Lost returns requests that never completed (retry budget exhausted or the
// run ended first).
func (r *MemcachedResult) Lost() uint64 {
	if r.Completed > r.Attempted {
		return 0
	}
	return r.Attempted - r.Completed
}

// ThroughputPerServer returns mean served requests/second per server node.
func (r *MemcachedResult) ThroughputPerServer() float64 {
	if r.Elapsed <= 0 || r.Servers == 0 {
		return 0
	}
	return float64(r.Samples) / r.Elapsed.Seconds() / float64(r.Servers)
}

// Nodes returns the node count for an array count using the Figure 7 shape.
func Nodes(arrays int) int { return 31 * 16 * arrays }

// RunMemcached executes one configuration on the standard Figure 7 topology,
// or on cfg.Topology when that override is set.
func RunMemcached(cfg MemcachedConfig) (*MemcachedResult, error) {
	topoParams := cfg.Topology
	if topoParams == (topology.Params{}) {
		if cfg.Arrays <= 0 {
			return nil, fmt.Errorf("core: Arrays must be positive")
		}
		topoParams = topology.Params{ServersPerRack: 31, RacksPerArray: 16, Arrays: cfg.Arrays}
	} else if _, err := topology.New(topoParams); err != nil {
		return nil, err
	}
	return runMemcachedWithTopology(cfg, topoParams, nil)
}

// runMemcachedWithTopology runs a memcached experiment on an explicit
// topology, optionally mutating the cluster config before construction
// (used by the validation-cluster proxies).
func runMemcachedWithTopology(cfg MemcachedConfig, topoParams topology.Params, mutate func(*Config)) (*MemcachedResult, error) {
	if cfg.ServersPerRack <= 0 || cfg.ServersPerRack >= topoParams.ServersPerRack {
		return nil, fmt.Errorf("core: ServersPerRack out of range")
	}
	cc := DefaultConfig(topoParams)
	cc.Seed = cfg.Seed
	cc.Server.Profile = cfg.Profile
	cc.Daemon = cfg.Daemon
	if cfg.Use10G {
		cc.Use10G()
	}
	cc.ToR.ExtraLatency = cfg.ExtraSwitchLatency
	cc.Array.ExtraLatency = cfg.ExtraSwitchLatency
	cc.DC.ExtraLatency = cfg.ExtraSwitchLatency
	if cfg.NICRxITR > 0 {
		cc.Server.NIC.RxITR = cfg.NICRxITR
	} else if cfg.NICRxITR < 0 {
		cc.Server.NIC.RxITR = 0
	}
	if mutate != nil {
		mutate(&cc)
	}

	if cfg.Sequential {
		cfg.Partitions = 0
	}
	copts := []Option{WithPartitions(cfg.Partitions), WithFaults(cfg.Faults)}
	if cfg.Unpooled {
		copts = append(copts, WithoutPacketPools())
	}
	cluster, err := New(cc, copts...)
	if err != nil {
		return nil, err
	}
	defer cluster.Shutdown()
	if cfg.OnCluster != nil {
		cfg.OnCluster(cluster)
	}
	obsn := cluster.observation
	topo := cluster.Topo

	wl := cfg.Workload
	if wl.Keys == 0 {
		wl = workload.ETC()
	}

	// Place servers: the first ServersPerRack nodes of each rack, spread
	// evenly as in §4.2 ("we distributed 128 memcached servers evenly
	// across all 64 racks to minimize potential hot spots").
	template := memcache.Prewarm(wl)
	var serverAddrs []packet.Addr
	isServer := make(map[packet.NodeID]bool)
	for rack := 0; rack < topo.Racks(); rack++ {
		for i := 0; i < cfg.ServersPerRack; i++ {
			node := topo.Node(rack, i)
			sp := memcache.DefaultServer(cfg.Version, template.Clone())
			sp.Workers = cfg.Workers
			memcache.InstallServer(cluster.Machine(node), sp)
			serverAddrs = append(serverAddrs, packet.Addr{Node: node, Port: sp.Port})
			isServer[node] = true
		}
	}

	res := &MemcachedResult{
		Overall: metrics.NewHistogram(),
		ByHop: map[topology.HopClass]*metrics.Histogram{
			topology.Local:  metrics.NewHistogram(),
			topology.OneHop: metrics.NewHistogram(),
			topology.TwoHop: metrics.NewHistogram(),
		},
		Servers: len(serverAddrs),
	}

	// Install clients on every non-server node (bounded by MaxClients).
	// Client callbacks fire from their machine's partition, so aggregation
	// into res is mutex-protected; every aggregate (counters, histogram
	// buckets, min/max) is commutative, which keeps the result independent
	// of cross-partition callback interleaving — and hence of worker count.
	var mu sync.Mutex
	clients := 0
	done := 0
	for n := 0; n < topo.Servers(); n++ {
		node := packet.NodeID(n)
		if isServer[node] {
			continue
		}
		if cfg.MaxClients > 0 && clients >= cfg.MaxClients {
			break
		}
		clients++
		cp := memcache.DefaultClient(serverAddrs, cfg.RequestsPerClient)
		cp.Proto = cfg.Proto
		cp.Workload = wl
		cp.ChurnEvery = cfg.ChurnEvery
		if cfg.StartSpread > 0 {
			cp.StartSpread = cfg.StartSpread
		}
		seen := 0 // per-client, only touched from its own partition
		cp.OnSample = func(s memcache.Sample) {
			obsn.traceRequest(node, s)
			seen++
			if seen <= cfg.Warmup {
				mu.Lock()
				res.Completed++
				mu.Unlock()
				return
			}
			mu.Lock()
			defer mu.Unlock()
			res.Completed++
			res.Samples++
			if s.Retried {
				res.Retried++
			}
			res.Overall.Record(s.Latency)
			res.ByHop[topo.Hops(node, s.Server)].Record(s.Latency)
		}
		m := cluster.Machine(node)
		cp.OnDone = func() {
			mu.Lock()
			defer mu.Unlock()
			done++
			if done == clients {
				// The halting event's own clock is the run length (on the
				// parallel path the engines then drain to the next barrier,
				// whose timing depends on the quantum, not the workload).
				res.Elapsed = sim.Duration(m.Now())
				cluster.Halt()
			}
		}
		memcache.InstallClient(cluster.Machine(node), cp)
	}
	res.Clients = clients
	res.Attempted = uint64(clients) * uint64(cfg.RequestsPerClient)

	deadline := cfg.Deadline
	if deadline == 0 {
		per := wl.ThinkTime + 3*sim.Millisecond
		deadline = sim.Duration(cfg.RequestsPerClient)*per + 5*sim.Second
	}
	cluster.RunUntil(deadline)
	obsn.Finish()
	res.ClientsDone = done
	if res.Elapsed == 0 { // deadline hit before every client finished
		res.Elapsed = sim.Duration(cluster.Now())
	}
	res.SwitchDrops = cluster.SwitchDrops()
	res.FaultDrops = cluster.FaultDrops()
	res.FaultEdges = cluster.FaultEdges()

	var util float64
	for _, addr := range serverAddrs {
		util += cluster.Machine(addr.Node).Util.Fraction(res.Elapsed)
	}
	if len(serverAddrs) > 0 {
		res.MeanUtil = util / float64(len(serverAddrs))
	}
	return res, nil
}
