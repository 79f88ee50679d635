// Package diablo is a software reproduction of DIABLO ("Datacenter-In-A-Box
// at LOw cost"), the FPGA-based warehouse-scale computer network simulator of
// Tan, Qian, Chen, Asanović and Patterson (ASPLOS 2015).
//
// DIABLO simulated O(1,000)-O(10,000) datacenter servers — each running a
// full software stack — together with their NICs and every level of the
// datacenter switching hierarchy, using FPGA-hosted abstract performance
// models (FAME-7). This package implements those same abstract models in
// pure Go on a deterministic discrete-event engine:
//
//   - fixed-CPI server models running a simulated Linux-like kernel
//     (scheduler, syscalls, sockets, epoll, NAPI driver) with real
//     application code making simulated syscalls;
//   - an Intel 8254x-style NIC model with descriptor rings and interrupt
//     mitigation;
//   - virtual-output-queue and shared-buffer switch models arranged in the
//     paper's three-level Clos topology;
//   - from-scratch TCP (Reno/NewReno, 200 ms min-RTO) and UDP transports;
//   - the paper's workloads: the TCP Incast benchmark and memcached driven
//     by a Facebook-calibrated (ETC) workload generator.
//
// Every table and figure of the paper's evaluation is reproducible through
// the experiment registry (see Experiments) or the cmd/diablo CLI. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results.
//
// # Quickstart
//
//	cluster, err := diablo.NewCluster(diablo.DefaultClusterConfig(
//	    diablo.TopologyParams{ServersPerRack: 4, RacksPerArray: 2, Arrays: 1}))
//	...
//	cluster.Machine(0).Spawn("server", func(t *diablo.Thread) { ... })
//	cluster.RunUntil(diablo.Second)
//
// See examples/ for complete programs.
package diablo

import (
	"diablo/internal/apps/incast"
	"diablo/internal/apps/memcache"
	"diablo/internal/core"
	"diablo/internal/cpu"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// Simulation time and scheduling.
type (
	// Time is an absolute simulated time (picoseconds since epoch).
	Time = sim.Time
	// Duration is a span of simulated time.
	Duration = sim.Duration
	// Scheduler is the engine-agnostic event-scheduling surface: it is
	// satisfied by the sequential engine and by the per-partition handles of
	// a parallel run. Model code never sees a concrete engine type.
	Scheduler = sim.Scheduler
)

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Cluster construction.
type (
	// TopologyParams sizes the Clos topology.
	TopologyParams = topology.Params
	// HopClass classifies paths (Local / OneHop / TwoHop).
	HopClass = topology.HopClass
	// SwitchParams configures a switch model.
	SwitchParams = vswitch.Params
	// KernelProfile is a kernel-version cost model.
	KernelProfile = kernel.Profile
)

// Hop classes.
const (
	Local  = topology.Local
	OneHop = topology.OneHop
	TwoHop = topology.TwoHop
)

// Memcached client transports.
const (
	ProtoUDP = memcache.UDP
	ProtoTCP = memcache.TCP
)

// Application programming surface (simulated OS).
type (
	// Thread is a simulated kernel thread running application code.
	Thread = kernel.Thread
	// Addr is a transport address.
	Addr = packet.Addr
	// Msg is the fixed-size application message a UDP datagram or a TCP
	// message boundary carries by value (TCPSocket.Send, Recv).
	Msg = packet.Msg
)

// Measurement.
type (
	// Series is a named (x, y) data series (one plotted curve).
	Series = metrics.Series
	// Table is a rendered text table.
	Table = metrics.Table
)

// Experiments (the paper's evaluation).
type (
	// IncastConfig parameterizes a §4.1 TCP Incast run.
	IncastConfig = core.IncastConfig
	// IncastResult is a finished incast run.
	IncastResult = incast.Result
	// MemcachedConfig parameterizes a §4.2 memcached experiment.
	MemcachedConfig = core.MemcachedConfig
	// MemcachedResult aggregates a memcached experiment.
	MemcachedResult = core.MemcachedResult
	// MemcachedVersion is a memcached release profile.
	MemcachedVersion = memcache.Version
)

// Constructors and helpers re-exported from the internal packages.
var (
	// NewCluster builds and wires a cluster.
	NewCluster = core.New
	// WithPartitions sets the parallel worker count for a multi-rack
	// cluster (0 = run sequentially); results are identical at any worker
	// count and in either mode.
	WithPartitions = core.WithPartitions
	// DefaultClusterConfig returns the paper's baseline cluster for a
	// topology.
	DefaultClusterConfig = core.DefaultConfig

	// GHz builds a fixed-CPI CPU model.
	GHz = cpu.GHz
	// Linux2639 and Linux357 are the paper's kernel profiles.
	Linux2639 = kernel.Linux2639
	Linux357  = kernel.Linux357

	// Switch presets.
	Gigabit1GShallow      = vswitch.Gigabit1GShallow
	SharedBufferCommodity = vswitch.SharedBufferCommodity
	NS2DropTail           = vswitch.NS2DropTail

	// Incast experiments.
	DefaultIncast = core.DefaultIncast
	RunIncast     = core.RunIncast

	// Memcached experiments.
	DefaultMemcached = core.DefaultMemcached
	RunMemcached     = core.RunMemcached

	// Memcached versions.
	V1415 = memcache.V1415
	V1417 = memcache.V1417

	// Simulator performance (§5).
	Section5Performance = core.Section5Performance
)

// Observability: deterministic simulated-time stats and Chrome-trace export
// (see DESIGN.md §5.8 for the determinism contract).
type (
	// ObserveConfig selects what an attached Observation records; the zero
	// value samples cluster-level gauges and traces every span source.
	ObserveConfig = core.ObserveConfig
	// Observation bundles the stats registry and trace attached to a cluster.
	Observation = core.Observation
	// Cluster is a wired cluster, as NewCluster and the OnCluster hooks see it.
	Cluster = core.Cluster
)

// Observe attaches an Observation to a cluster: from a config's OnCluster
// hook, RunMemcached or RunIncast then traces every request or iteration and
// returns the observation finished.
var Observe = core.Observe
