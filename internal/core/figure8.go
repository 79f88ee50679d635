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

// figure8Clients is the Figure 8 x-axis: up to the 14 clients the paper's
// 16-node testbed leaves beside its two memcached servers.
var figure8Clients = []int{2, 4, 6, 8, 10, 12, 14}

// Figure8 reproduces the single-rack memcached validation (§4.2 "Validating
// memcached on real clusters"): a 16-node testbed with two memcached servers
// (4 workers, TCP clients), sweeping the client count over sweep.Senders. It
// returns four series: server throughput and mean client latency versus
// client count, for the physical-testbed proxy (3 GHz, shared-buffer switch,
// heavy background) and for DIABLO. The load test is closed-loop (no think
// time), as the paper's "send 30,000 requests till completion".
func Figure8(sweep Sweep) (throughput, latency []*metrics.Series, err error) {
	sweep = sweep.withDefaults(600, figure8Clients)
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
