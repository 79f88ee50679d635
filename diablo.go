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
	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/obs"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
	"diablo/internal/workload"
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
	// EventID names a scheduled event for cancellation.
	EventID = sim.EventID
	// Event is a typed, pointer-light event record, scheduled without
	// allocating through Scheduler.AtEvent/AfterEvent; the per-packet hot
	// paths use it. See DESIGN.md §5.9 for the ABI.
	Event = sim.Event
	// EvKind tags an Event and indexes the engine's handler jump table.
	EvKind = sim.EvKind
	// Handler dispatches one typed event kind; registered per engine.
	Handler = sim.Handler
	// HandlerRegistrar is the registration surface (RegisterHandler) the
	// engines expose; package RegisterEventHandlers helpers take it.
	HandlerRegistrar = sim.HandlerRegistrar
)

// Typed-event kinds (the jump-table rows). Model packages register handlers
// for their own kinds via their RegisterEventHandlers helpers; EvAppTick is
// free for harness and benchmark models.
const (
	EvPacketHop    = sim.EvPacketHop
	EvSwitchTxDone = sim.EvSwitchTxDone
	EvSwitchWake   = sim.EvSwitchWake
	EvNicTx        = sim.EvNicTx
	EvNicRxIntr    = sim.EvNicRxIntr
	EvTimerTick    = sim.EvTimerTick
	EvKernelSpan   = sim.EvKernelSpan
	EvAppTick      = sim.EvAppTick
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
	// ClusterConfig describes a complete simulated array.
	ClusterConfig = core.Config
	// Cluster is a fully wired simulated WSC array.
	Cluster = core.Cluster
	// TopologyParams sizes the Clos topology.
	TopologyParams = topology.Params
	// Topology computes routes and hop classes.
	Topology = topology.Topology
	// HopClass classifies paths (Local / OneHop / TwoHop).
	HopClass = topology.HopClass
	// ClusterOption customizes cluster execution (parallelism, quantum).
	ClusterOption = core.Option
	// SwitchParams configures a switch model.
	SwitchParams = vswitch.Params
	// SwitchArch selects the buffering architecture.
	SwitchArch = vswitch.Arch
	// CPUModel is the fixed-CPI server compute model.
	CPUModel = cpu.Model
	// ServerConfig configures a machine (CPU, kernel, NIC, TCP).
	ServerConfig = kernel.Config
	// KernelProfile is a kernel-version cost model.
	KernelProfile = kernel.Profile
	// DaemonConfig describes background housekeeping load.
	DaemonConfig = kernel.DaemonConfig
)

// Hop classes.
const (
	Local  = topology.Local
	OneHop = topology.OneHop
	TwoHop = topology.TwoHop
)

// Switch architectures.
const (
	ArchVOQ          = vswitch.ArchVOQ
	ArchSharedOutput = vswitch.ArchSharedOutput
	ArchDropTail     = vswitch.ArchDropTail
)

// Memcached client transports.
const (
	ProtoUDP = memcache.UDP
	ProtoTCP = memcache.TCP
)

// Application programming surface (simulated OS).
type (
	// Machine is one simulated server.
	Machine = kernel.Machine
	// Thread is a simulated kernel thread running application code.
	Thread = kernel.Thread
	// UDPSocket is a bound datagram socket.
	UDPSocket = kernel.UDPSocket
	// TCPSocket is a connection endpoint.
	TCPSocket = kernel.TCPSocket
	// TCPListener accepts connections.
	TCPListener = kernel.TCPListener
	// Epoll is the readiness multiplexer.
	Epoll = kernel.Epoll
	// EpollEvent is one readiness notification.
	EpollEvent = kernel.EpollEvent
	// NodeID identifies a server.
	NodeID = packet.NodeID
	// Addr is a transport address.
	Addr = packet.Addr
	// Port is a transport port.
	Port = packet.Port
)

// Epoll interest bits.
const (
	EpollIn  = kernel.EpollIn
	EpollOut = kernel.EpollOut
	EpollHup = kernel.EpollHup
	// WaitForever is the infinite epoll timeout.
	WaitForever = kernel.WaitForever
)

// Measurement.
type (
	// Histogram is a log-bucketed latency histogram.
	Histogram = metrics.Histogram
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
	// IncastSweep parameterizes the Figure 6 sweeps.
	IncastSweep = core.IncastSweep
	// MemcachedConfig parameterizes a §4.2 memcached experiment.
	MemcachedConfig = core.MemcachedConfig
	// MemcachedResult aggregates a memcached experiment.
	MemcachedResult = core.MemcachedResult
	// MemcachedSweep parameterizes the §4.2 figure reproductions.
	MemcachedSweep = core.MemcachedSweep
	// MemcachedVersion is a memcached release profile.
	MemcachedVersion = memcache.Version
	// ETCParams are the Facebook ETC workload parameters.
	ETCParams = workload.ETCParams
	// PerfPoint is one §5 simulator-performance measurement.
	PerfPoint = core.PerfPoint
)

// Constructors and helpers re-exported from the internal packages.
var (
	// NewCluster builds and wires a cluster.
	NewCluster = core.New
	// WithPartitions sets the parallel worker count for a multi-rack
	// cluster (0 = run sequentially); results are identical at any worker
	// count and in either mode.
	WithPartitions = core.WithPartitions
	// WithQuantum overrides the synchronization quantum (must not exceed
	// the minimum inter-partition link latency).
	WithQuantum = core.WithQuantum
	// DefaultClusterConfig returns the paper's baseline cluster for a
	// topology.
	DefaultClusterConfig = core.DefaultConfig
	// NewTopology validates topology parameters.
	NewTopology = topology.New
	// SingleRack builds a one-switch topology.
	SingleRack = topology.SingleRack

	// GHz builds a fixed-CPI CPU model.
	GHz = cpu.GHz
	// Linux2639 and Linux357 are the paper's kernel profiles; IdealHost is
	// the ns2-style zero-cost endpoint.
	Linux2639 = kernel.Linux2639
	Linux357  = kernel.Linux357
	IdealHost = kernel.IdealHost

	// Switch presets.
	Gigabit1GShallow      = vswitch.Gigabit1GShallow
	TenGigLowLatency      = vswitch.TenGigLowLatency
	SharedBufferCommodity = vswitch.SharedBufferCommodity
	NS2DropTail           = vswitch.NS2DropTail

	// Incast experiments.
	DefaultIncast = core.DefaultIncast
	RunIncast     = core.RunIncast
	Figure6a      = core.Figure6a
	Figure6b      = core.Figure6b

	// Memcached experiments.
	DefaultMemcached      = core.DefaultMemcached
	RunMemcached          = core.RunMemcached
	DefaultMemcachedSweep = core.DefaultMemcachedSweep
	Figure8               = core.Figure8
	DefaultFigure8        = core.DefaultFigure8
	Figure9               = core.Figure9
	Figure10              = core.Figure10
	Figure11              = core.Figure11
	Figure12              = core.Figure12
	Figure13              = core.Figure13
	Figure14              = core.Figure14
	Figure15              = core.Figure15

	// Workload.
	ETC = workload.ETC

	// Memcached versions.
	V1415 = memcache.V1415
	V1417 = memcache.V1417

	// Simulator performance (§5).
	Section5Performance      = core.Section5Performance
	PerfTable                = core.PerfTable
	EngineComparison         = core.EngineComparison
	EngineComparisonMeasured = core.EngineComparisonMeasured
)

// EngineComparisonStats carries the full engine-comparison measurement
// (throughput and allocs/event for both engines); see core.EngineComparisonMeasured.
type EngineComparisonStats = core.EngineComparisonStats

// Observability: deterministic simulated-time stats, engine introspection and
// Chrome-trace export (see DESIGN.md §5.8 for the determinism contract).
type (
	// ObserveConfig selects what an attached Observation records.
	ObserveConfig = core.ObserveConfig
	// Observation bundles the stats registry and trace attached to a cluster.
	Observation = core.Observation
	// StatsRegistry samples instruments on the simulated clock; its encoded
	// series are byte-identical at any worker count.
	StatsRegistry = obs.Registry
	// ChromeTrace collects trace events for chrome://tracing / Perfetto.
	ChromeTrace = obs.Trace
	// RunManifest is the machine-readable record of one observed run
	// (schema diablo/run-manifest/v1).
	RunManifest = obs.Manifest
	// EngineIntrospection exposes per-partition utilization and barrier
	// statistics of a parallel run.
	EngineIntrospection = sim.EngineIntrospection
)

// Observability constructors and runners.
var (
	// DefaultObserve enables kernel/syscall/packet spans with cluster-level
	// gauges (per-node gauges off).
	DefaultObserve = core.DefaultObserve
	// Observe attaches a stats registry and trace to a cluster before Run.
	Observe = core.Observe
	// RunMemcachedObserved and RunIncastObserved run a workload with an
	// Observation attached and return it finished.
	RunMemcachedObserved = core.RunMemcachedObserved
	RunIncastObserved    = core.RunIncastObserved
	// ManifestDegradation converts a Degradation for a run manifest.
	ManifestDegradation = core.ManifestDegradation
)

// Fault injection and graceful degradation (see package fault and DESIGN.md
// §5.7 for the determinism contract).
type (
	// FaultPlan is a deterministic, schedule-driven fault plan.
	FaultPlan = fault.Plan
	// FaultAction is one scheduled fault window.
	FaultAction = fault.Action
	// FaultTarget names the component an action hits.
	FaultTarget = fault.Target
	// FaultKind enumerates the supported fault kinds.
	FaultKind = fault.Kind
	// FaultGenConfig parameterizes random fault-plan generation.
	FaultGenConfig = fault.GenConfig
	// FaultEdge is one recorded apply/clear transition of a fault window.
	FaultEdge = core.FaultEdge
	// Degradation quantifies a faulted run against its healthy baseline.
	Degradation = metrics.Degradation
	// ToRFlapConfig parameterizes the memcached-under-ToR-flap experiment.
	ToRFlapConfig = core.ToRFlapConfig
	// LossyUplinkConfig parameterizes the incast-under-loss experiment.
	LossyUplinkConfig = core.LossyUplinkConfig
	// FaultedMemcachedResult pairs baseline and faulted memcached runs.
	FaultedMemcachedResult = core.FaultedMemcachedResult
	// FaultedIncastResult pairs baseline and faulted incast runs.
	FaultedIncastResult = core.FaultedIncastResult
)

// Fault directions (which side of a duplex link an action hits).
const (
	DirBoth = fault.Both
	DirUp   = fault.Up
	DirDown = fault.Down
)

// Switch hierarchy levels for switch-targeted faults.
const (
	LevelToR   = fault.ToR
	LevelArray = fault.Array
	LevelDC    = fault.DC
)

// Fault-injection constructors and experiment runners.
var (
	// NewFaultPlan starts an empty plan with a master seed; chain the
	// builder methods (FlapRackUplink, DegradeEdge, StallNIC, ...).
	NewFaultPlan = fault.NewPlan
	// ParseFaultSpec parses the CLI fault grammar, e.g.
	// "tordegrade rack=0 at=30ms dur=200ms loss=0.5; nicstall node=3 at=1ms dur=500us".
	ParseFaultSpec = fault.ParseSpec
	// GenerateFaults draws a random (but seed-deterministic) plan.
	GenerateFaults = fault.Generate
	// WithFaults installs a fault plan at cluster construction.
	WithFaults = core.WithFaults

	// DefaultToRFlap and RunMemcachedToRFlap: §6-style memcached fan-out
	// latency under a ToR uplink flap.
	DefaultToRFlap      = core.DefaultToRFlap
	RunMemcachedToRFlap = core.RunMemcachedToRFlap
	// RunMemcachedFaulted runs baseline + faulted memcached under any plan.
	RunMemcachedFaulted = core.RunMemcachedFaulted
	// DefaultLossyUplink and RunIncastLossyUplink: §6-style incast collapse
	// with a lossy client downlink.
	DefaultLossyUplink   = core.DefaultLossyUplink
	RunIncastLossyUplink = core.RunIncastLossyUplink
	// RunIncastFaulted runs baseline + faulted incast under any plan.
	RunIncastFaulted = core.RunIncastFaulted
)
