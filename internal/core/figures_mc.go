package core

import (
	"fmt"

	"diablo/internal/apps/memcache"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
)

// Sweep holds the knobs every figure reproduction shares. A zero field takes
// the figure's default, so the zero Sweep reproduces every figure at the
// reduced scale DESIGN.md documents.
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
	// Partitions is the parallel worker count for every memcached run (0 or
	// 1 = single-threaded; results are identical either way).
	Partitions int
}

// withDefaults fills s's zero fields with a figure's defaults.
func (s Sweep) withDefaults(requests int, senders []int) Sweep {
	if s.Requests <= 0 {
		s.Requests = requests
	}
	if s.Iterations <= 0 {
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

// memcached returns the §4.2 figures' base configuration, with s's defaults
// filled in.
func (s Sweep) memcached() MemcachedConfig {
	s = s.withDefaults(150, nil)
	cfg := DefaultMemcached()
	cfg.RequestsPerClient = s.Requests
	cfg.Seed = s.Seed
	cfg.Partitions = s.Partitions
	return cfg
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
	cfg := sweep.memcached()
	cfg.Version = ver
	cfg.Proto = memcache.TCP // the validation used memcached over TCP
	cfg.ChurnEvery = 40
	// 120-node shape: approximate with 4 racks of 31 (124 nodes), 1 array.
	cfg.Arrays = 1
	cfg.Deadline = 0
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

// Figure10 reproduces the PMF of client request latency at the 2,000-node
// scale over UDP, classified by switch hops, for the 1 Gbps and 10 Gbps
// interconnects.
func Figure10(sweep Sweep) ([]*metrics.Series, error) {
	var out []*metrics.Series
	for _, tenG := range []bool{false, true} {
		cfg := sweep.memcached()
		cfg.Proto = memcache.UDP
		cfg.Use10G = tenG
		res, err := RunMemcached(cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 10 (10G=%v): %w", tenG, err)
		}
		label := "1Gbps"
		if tenG {
			label = "10Gbps"
		}
		out = append(out,
			metrics.FromPMF(label+" Local", res.ByHop[topology.Local].PMF(10)),
			metrics.FromPMF(label+" 1-Hop", res.ByHop[topology.OneHop].PMF(10)),
			metrics.FromPMF(label+" 2-Hop", res.ByHop[topology.TwoHop].PMF(10)),
			metrics.FromPMF(label+" Overall", res.Overall.PMF(10)),
		)
	}
	return out, nil
}

// Figure11 reproduces the 95th-100th percentile latency CDF at the three
// scales on the 1 Gbps interconnect over UDP: the tail worsens by an order
// of magnitude from 500 to 2,000 nodes.
func Figure11(sweep Sweep) ([]*metrics.Series, error) {
	var out []*metrics.Series
	for _, arrays := range []int{1, 2, 4} {
		cfg := sweep.memcached()
		cfg.Arrays = arrays
		cfg.Proto = memcache.UDP
		res, err := RunMemcached(cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 11 scale %d: %w", Nodes(arrays), err)
		}
		out = append(out, metrics.FromCDF(fmt.Sprintf("%d-node", Nodes(arrays)), res.Overall.TailCDF(0.95)))
	}
	return out, nil
}

// Figure12 reproduces the switch-latency sensitivity study: client latency
// tail at 2,000 nodes / 10 Gbps with +0, +50 and +100 ns of port-to-port
// latency at every switch level. "The extra switch latency does not affect
// the shape of the tail curves."
func Figure12(sweep Sweep) ([]*metrics.Series, error) {
	var out []*metrics.Series
	for _, extra := range []sim.Duration{0, 50 * sim.Nanosecond, 100 * sim.Nanosecond} {
		cfg := sweep.memcached()
		cfg.Proto = memcache.UDP
		cfg.Use10G = true
		cfg.ExtraSwitchLatency = extra
		res, err := RunMemcached(cfg)
		if err != nil {
			return nil, fmt.Errorf("figure 12 +%v: %w", extra, err)
		}
		out = append(out, metrics.FromCDF(fmt.Sprintf("+%dns", int64(extra/sim.Nanosecond)), res.Overall.TailCDF(0.96)))
	}
	return out, nil
}

// Figure13 reproduces the TCP vs UDP comparison across {500,1000,2000} nodes
// x {1,10} Gbps — the experiment whose 500-node conclusion reverses at
// 2,000 nodes.
func Figure13(sweep Sweep) ([]*metrics.Series, error) {
	var out []*metrics.Series
	for _, tenG := range []bool{false, true} {
		for _, arrays := range []int{1, 2, 4} {
			for _, proto := range []memcache.Proto{memcache.UDP, memcache.TCP} {
				cfg := sweep.memcached()
				cfg.Arrays = arrays
				cfg.Proto = proto
				cfg.Use10G = tenG
				res, err := RunMemcached(cfg)
				if err != nil {
					return nil, fmt.Errorf("figure 13 %v %d-node: %w", proto, Nodes(arrays), err)
				}
				rate := "1Gbps"
				if tenG {
					rate = "10Gbps"
				}
				name := fmt.Sprintf("%s %d-node %v", rate, Nodes(arrays), proto)
				out = append(out, metrics.FromCDF(name, res.Overall.TailCDF(0.97)))
			}
		}
	}
	return out, nil
}

// Figure14 reproduces the kernel comparison at 2,000 nodes / 10 Gbps:
// Linux 2.6.39.3 vs 3.5.7 ("the average request latency is almost halved").
func Figure14(sweep Sweep) ([]*metrics.Series, []*MemcachedResult, error) {
	var out []*metrics.Series
	var results []*MemcachedResult
	for _, prof := range []kernel.Profile{kernel.Linux2639(), kernel.Linux357()} {
		cfg := sweep.memcached()
		cfg.Proto = memcache.UDP
		cfg.Use10G = true
		cfg.Profile = prof
		res, err := RunMemcached(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("figure 14 %s: %w", prof.Name, err)
		}
		out = append(out, metrics.FromCDF(prof.Name, res.Overall.TailCDF(0.95)))
		results = append(results, res)
	}
	return out, results, nil
}

// Figure15 reproduces the memcached version comparison (1.4.15 vs 1.4.17,
// TCP with connection churn) at the 500- and 2,000-node scales: the accept4
// saving is marginal at 500 nodes and pronounced at 2,000.
func Figure15(sweep Sweep) ([]*metrics.Series, error) {
	var out []*metrics.Series
	for _, arrays := range []int{1, 4} {
		for _, ver := range []memcache.Version{memcache.V1417(), memcache.V1415()} {
			cfg := sweep.memcached()
			cfg.Arrays = arrays
			cfg.Proto = memcache.TCP
			cfg.Version = ver
			cfg.ChurnEvery = 25
			res, err := RunMemcached(cfg)
			if err != nil {
				return nil, fmt.Errorf("figure 15 %s %d-node: %w", ver.Name, Nodes(arrays), err)
			}
			name := fmt.Sprintf("%d-node memcached %s", Nodes(arrays), ver.Name)
			out = append(out, metrics.FromCDF(name, res.Overall.TailCDF(0.95)))
		}
	}
	return out, nil
}
