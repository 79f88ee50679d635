package core

import (
	"fmt"

	"diablo/internal/apps/memcache"
	"diablo/internal/cpu"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// Sweep holds the knobs of the figure reproductions that run in Go — figures
// 6a, 6b, 8 and 9 — which the perf and fault experiments read too (figures
// 10-15 are campaign presets). A zero field takes the figure's default, so
// the zero Sweep reproduces each figure at the reduced scale DESIGN.md
// documents.
type Sweep struct {
	// Requests per memcached client (paper: 30K; default 150, 600 for
	// Figure 8).
	Requests int
	// Iterations per incast point (paper and default: 40).
	Iterations int
	// Senders lists the x-axis points: sender counts for Figure 6 (default
	// 1..24), client counts for Figure 8 (default 2..14).
	Senders []int
	// Seed is the master seed (default 1).
	Seed uint64
	// Partitions is the parallel worker count for the memcached runs (0 or
	// 1 = single-threaded; results are identical either way).
	Partitions int
}

// withDefaults fills s's zero fields with a figure's defaults. A negative
// field stays as it is, for the run function to reject.
func (s Sweep) withDefaults(requests int, senders []int) Sweep {
	if s.Requests == 0 {
		s.Requests = requests
	}
	if s.Iterations == 0 {
		s.Iterations = 40
	}
	if len(s.Senders) == 0 {
		s.Senders = senders
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// incastSenders is the Figure 6 x-axis: up to the paper's 24 switch ports.
var incastSenders = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}

// Figure6a reproduces "Reproducing the goodput of TCP Incast" on the 1 Gbps
// shallow-buffer switch: the DIABLO model (abstract VOQ switch + full
// software stack), an ns2-style baseline (drop-tail queues, near-zero-cost
// hosts), and the real-hardware proxy (shared-buffer commodity switch).
// Each series maps sender count to average application goodput in Mbps.
func Figure6a(sweep Sweep) ([]*metrics.Series, error) {
	sweep = sweep.withDefaults(0, incastSenders)
	type curve struct {
		name string
		cfg  func(n int) IncastConfig
	}
	curves := []curve{
		{"DIABLO (VOQ model, full stack)", func(n int) IncastConfig {
			return DefaultIncast(n)
		}},
		{"ns2-style (drop-tail, ideal hosts)", func(n int) IncastConfig {
			c := DefaultIncast(n)
			c.Switch = vswitch.NS2DropTail("tor", 0)
			c.CPU = cpu.GHz(1000) // endpoint software is free
			c.Profile = kernel.IdealHost()
			return c
		}},
		{"real hardware proxy (shared-buffer switch)", func(n int) IncastConfig {
			c := DefaultIncast(n)
			c.Switch = vswitch.SharedBufferCommodity("tor", 0)
			c.CPU = cpu.GHz(3) // the testbed's 3 GHz Xeons
			return c
		}},
	}
	var out []*metrics.Series
	for _, cv := range curves {
		s := &metrics.Series{Name: cv.name, XLabel: "senders", YLabel: "goodput_mbps"}
		for _, n := range sweep.Senders {
			cfg := cv.cfg(n)
			cfg.Iterations = sweep.Iterations
			cfg.Seed = sweep.Seed
			res, err := RunIncast(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure 6a %q n=%d: %w", cv.name, n, err)
			}
			s.Append(float64(n), res.GoodputBps/1e6)
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure6b reproduces the 10 Gbps incast experiment: the same switch and TCP
// configuration on a 10 Gbps fabric, sweeping client syscall style (pthread
// vs epoll) and CPU speed (4 GHz vs 2 GHz). "CPU speed and choice of OS
// syscalls significantly affects the application throughput."
func Figure6b(sweep Sweep) ([]*metrics.Series, error) {
	sweep = sweep.withDefaults(0, incastSenders)
	type variant struct {
		name  string
		ghz   float64
		epoll bool
	}
	variants := []variant{
		{"pthread 4GHz", 4, false},
		{"epoll 4GHz", 4, true},
		{"pthread 2GHz", 2, false},
		{"epoll 2GHz", 2, true},
	}
	var out []*metrics.Series
	for _, v := range variants {
		s := &metrics.Series{Name: v.name, XLabel: "senders", YLabel: "goodput_mbps"}
		for _, n := range sweep.Senders {
			cfg := DefaultIncast(n)
			cfg.Switch = vswitch.TenGigLowLatency("tor", 0)
			cfg.CPU = cpu.GHz(v.ghz)
			cfg.Epoll = v.epoll
			cfg.Iterations = sweep.Iterations
			cfg.Seed = sweep.Seed
			res, err := RunIncast(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure 6b %q n=%d: %w", v.name, n, err)
			}
			s.Append(float64(n), res.GoodputBps/1e6)
		}
		out = append(out, s)
	}
	return out, nil
}

// figure8Clients is the Figure 8 x-axis: up to the 14 clients the paper's
// 16-node testbed leaves beside its two memcached servers.
var figure8Clients = []int{2, 4, 6, 8, 10, 12, 14}

// figure8MaxClients is the number of client nodes in Figure 8's rack.
const figure8MaxClients = 14

// Figure8 reproduces the single-rack memcached validation (§4.2 "Validating
// memcached on real clusters"): a 16-node testbed with two memcached servers
// (4 workers, TCP clients), sweeping the client count over sweep.Senders. It
// returns four series: server throughput and mean client latency versus
// client count, for the physical-testbed proxy (3 GHz, shared-buffer switch,
// heavy background) and for DIABLO. The load test is closed-loop (no think
// time), as the paper's "send 30,000 requests till completion".
func Figure8(sweep Sweep) (throughput, latency []*metrics.Series, err error) {
	sweep = sweep.withDefaults(600, figure8Clients)
	for _, n := range sweep.Senders {
		if n < 1 || n > figure8MaxClients {
			return nil, nil, fmt.Errorf("figure 8: Senders %d out of range [1, %d], the client nodes of its 16-node rack", n, figure8MaxClients)
		}
	}
	for _, physical := range []bool{true, false} {
		name := "DIABLO"
		if physical {
			name = "Physical proxy"
		}
		th := &metrics.Series{Name: name, XLabel: "clients", YLabel: "requests_per_sec_per_server"}
		lat := &metrics.Series{Name: name, XLabel: "clients", YLabel: "mean_latency_us"}
		for _, nClients := range sweep.Senders {
			res, e := runFigure8Point(sweep, physical, nClients)
			if e != nil {
				return nil, nil, fmt.Errorf("figure 8 %s clients=%d: %w", name, nClients, e)
			}
			th.Append(float64(nClients), res.ThroughputPerServer())
			lat.Append(float64(nClients), res.Overall.Mean().Microseconds())
		}
		throughput = append(throughput, th)
		latency = append(latency, lat)
	}
	return throughput, latency, nil
}

func runFigure8Point(sweep Sweep, physical bool, nClients int) (*MemcachedResult, error) {
	cfg := DefaultMemcached()
	cfg.Arrays = 1
	cfg.RequestsPerClient = sweep.Requests
	cfg.MaxClients = nClients
	cfg.Seed = sweep.Seed
	cfg.Partitions = sweep.Partitions
	cfg.StartSpread = sim.Millisecond
	cfg.Warmup = 20
	cfg.Proto = memcache.TCP
	// Closed-loop load test: no think time.
	wl := cfg.Workload
	wl.ThinkTime = 0
	cfg.Workload = wl
	if physical {
		cfg.Daemon = kernel.HeavyDaemon()
	}
	// 16-node rack: 2 servers + 14 possible clients.
	topoParams := topology.Params{ServersPerRack: 16, RacksPerArray: 1, Arrays: 1}
	return runMemcachedWithTopology(cfg, topoParams, func(cc *Config) {
		if physical {
			cc.Server.CPU.FreqHz = 3_000_000_000
			cc.ToR = vswitch.SharedBufferCommodity("tor", 0)
		}
	})
}

// Figure9 reproduces the 120-node validation: client latency CDF for
// memcached 1.4.15 vs 1.4.17, on the physical-cluster proxy and on DIABLO.
// The proxy differs as the paper describes its real testbed: 3 GHz CPUs, a
// commodity shared-buffer fabric, and heavier background services (which is
// why its tail is fatter than DIABLO's — "the simulated 120-node setup is a
// more ideal environment with less software services running in the
// background").
func Figure9(sweep Sweep) ([]*metrics.Series, error) {
	var out []*metrics.Series
	for _, system := range []string{"Physical", "DIABLO"} {
		for _, ver := range []memcache.Version{memcache.V1417(), memcache.V1415()} {
			res, err := runMemcached120(sweep, system == "Physical", ver)
			if err != nil {
				return nil, fmt.Errorf("figure 9 %s %s: %w", system, ver.Name, err)
			}
			s := metrics.FromCDF(fmt.Sprintf("[%s] Memcached %s", system, ver.Name), res.Overall.TailCDF(0.98))
			out = append(out, s)
		}
	}
	return out, nil
}

// runMemcached120 runs the 8-rack, 120-node configuration of Figure 9
// (15 nodes per rack: the paper's physical testbed was an 8-rack 120-node
// cluster; we keep 2 servers per rack => 16 servers, 104 clients).
func runMemcached120(sweep Sweep, physical bool, ver memcache.Version) (*MemcachedResult, error) {
	sweep = sweep.withDefaults(150, nil)
	cfg := DefaultMemcached()
	cfg.RequestsPerClient = sweep.Requests
	cfg.Seed = sweep.Seed
	cfg.Partitions = sweep.Partitions
	cfg.Version = ver
	cfg.Proto = memcache.TCP // the validation used memcached over TCP
	cfg.ChurnEvery = 40
	// 120-node shape: approximate with 4 racks of 31 (124 nodes), 1 array.
	cfg.Arrays = 1
	if physical {
		cfg.Daemon = kernel.HeavyDaemon()
	}
	topoOverride := topology.Params{ServersPerRack: 31, RacksPerArray: 4, Arrays: 1}
	return runMemcachedWithTopology(cfg, topoOverride, func(cc *Config) {
		if physical {
			// 3 GHz Xeons behind shared-buffer commodity switches.
			cc.Server.CPU.FreqHz = 3_000_000_000
			cc.ToR = vswitch.SharedBufferCommodity("tor", 0)
			cc.Array = vswitch.SharedBufferCommodity("array", 0)
			cc.Array.SharedBuffer = 2 << 20
		}
	})
}
