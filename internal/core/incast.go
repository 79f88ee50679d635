package core

import (
	"fmt"

	"diablo/internal/apps/incast"
	"diablo/internal/cpu"
	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// IncastConfig parameterizes one TCP Incast run (§4.1): N storage servers
// and one client under a single switch.
type IncastConfig struct {
	// Senders is the number of storage servers returning data.
	Senders int
	// Switch is the switch model (the single ToR all nodes share).
	Switch vswitch.Params
	// CPU is the server model for every node (paper sweeps 2 vs 4 GHz).
	CPU cpu.Model
	// Profile is the kernel version.
	Profile kernel.Profile
	// Epoll selects the epoll client implementation.
	Epoll bool
	// BlockBytes is the striped block size per iteration (256 KB).
	BlockBytes int
	// Iterations is the number of synchronized reads (40).
	Iterations int
	// MinRTO overrides TCP's minimum retransmission timeout (200 ms).
	MinRTO sim.Duration
	// Deadline bounds the simulated time (a collapsed run with 40
	// iterations of 200ms+ stalls needs tens of simulated seconds).
	Deadline sim.Duration
	// Seed is the master seed.
	Seed uint64
	// Faults is an optional fault schedule injected into the run (nil =
	// healthy cluster). See package fault.
	Faults *fault.Plan
	// Unpooled disables the packet slab pools (see core.WithoutPacketPools).
	Unpooled bool
	// OnCluster, if set, observes the wired cluster before the run starts —
	// the hook for attaching tracers and custom instrumentation. An
	// Observation attached here with Observe gets a span per iteration and
	// is finished when RunIncast returns.
	OnCluster func(*Cluster)
}

// DefaultIncast returns the Figure 6a setup for n senders: 1 Gbps
// shallow-buffer switch, 4 GHz CPUs, pthread client, Linux 2.6.39.
func DefaultIncast(n int) IncastConfig {
	return IncastConfig{
		Senders:    n,
		Switch:     vswitch.Gigabit1GShallow("tor", 0),
		CPU:        cpu.GHz(4),
		Profile:    kernel.Linux2639(),
		BlockBytes: 256 * 1024,
		Iterations: 40,
		MinRTO:     200 * sim.Millisecond,
		Seed:       1,
	}
}

// RunIncast executes one incast configuration and returns the client's
// result.
func RunIncast(cfg IncastConfig) (incast.Result, error) {
	if cfg.Senders <= 0 {
		return incast.Result{}, fmt.Errorf("core: incast needs at least one sender")
	}
	topo := topology.Params{ServersPerRack: cfg.Senders + 1, RacksPerArray: 1, Arrays: 1}
	cc := DefaultConfig(topo)
	cc.ToR = cfg.Switch
	cc.Seed = cfg.Seed
	cc.Server.CPU = cfg.CPU
	cc.Server.Profile = cfg.Profile
	if cfg.MinRTO > 0 {
		cc.Server.TCP.MinRTO = cfg.MinRTO
	}
	copts := []Option{WithFaults(cfg.Faults)}
	if cfg.Unpooled {
		copts = append(copts, WithoutPacketPools())
	}
	cluster, err := New(cc, copts...)
	if err != nil {
		return incast.Result{}, err
	}
	defer cluster.Shutdown()
	if cfg.OnCluster != nil {
		cfg.OnCluster(cluster)
	}

	serverParams := incast.DefaultServer()
	servers := make([]packet.Addr, cfg.Senders)
	for i := 0; i < cfg.Senders; i++ {
		node := packet.NodeID(i + 1)
		incast.InstallServer(cluster.Machine(node), serverParams)
		servers[i] = packet.Addr{Node: node, Port: serverParams.Port}
	}

	clientParams := incast.DefaultClient(servers)
	clientParams.Epoll = cfg.Epoll
	if cfg.BlockBytes > 0 {
		clientParams.BlockBytes = cfg.BlockBytes
	}
	if cfg.Iterations > 0 {
		clientParams.Iterations = cfg.Iterations
	}
	if o := cluster.observation; o != nil {
		clientParams.OnIteration = o.traceIteration
	}

	var result *incast.Result
	incast.InstallClient(cluster.Machine(0), clientParams, func(r incast.Result) {
		result = &r
		cluster.Halt()
	})

	deadline := cfg.Deadline
	if deadline <= 0 {
		// A deeply collapsed run can stall for multiple backed-off RTOs per
		// iteration; budget generously (stalled periods cost few events).
		iters := cfg.Iterations
		if iters <= 0 {
			iters = 40
		}
		deadline = 60*sim.Second + sim.Duration(iters)*15*sim.Second
	}
	cluster.RunUntil(deadline)
	cluster.observation.Finish()
	if result == nil {
		return incast.Result{}, fmt.Errorf("core: incast run with %d senders did not finish by %v", cfg.Senders, deadline)
	}
	// Collect protocol stats cluster-wide: the data (and therefore the
	// losses) flow on the server-side connections.
	result.Retransmits, result.Timeouts, result.FastRetransmits = 0, 0, 0
	for _, m := range cluster.Machines {
		st := m.TCPStats()
		result.Retransmits += st.Retransmits
		result.Timeouts += st.Timeouts
		result.FastRetransmits += st.FastRetransmits
	}
	return *result, nil
}
