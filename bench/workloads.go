package main

import (
	"fmt"
	"strings"

	"diablo/internal/apps/memcache"
	"diablo/internal/core"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// workload is one named whole-model scenario. Exactly one of mc and incast is
// set; both are complete configurations apart from the seed and the hooks the
// harness fills in per repetition.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	why string
	// deterministic is false for a workload whose simulated result does not
	// replay today (see README.md, "mc-tcp-496-seq"). Such a workload has no
	// golden digest and is checked by predicates only.
	deterministic bool

	mc     *core.MemcachedConfig
	incast *core.IncastConfig
}

// Sizes are chosen so one repetition costs 1.5–2.5 CPU-seconds on the 2-vCPU
// reference container: a 20-second run then takes its median over 4–14
// repetitions, where the 5–7 CPU-second sizes first proposed would leave 3
// (README.md, "Sizing"). Changing a size changes the goldens: re-bless.
func workloads() []workload {
	mc := func(arrays, requests int, proto memcache.Proto) *core.MemcachedConfig {
		cfg := core.DefaultMemcached()
		cfg.Arrays = arrays
		cfg.RequestsPerClient = requests
		cfg.Proto = proto
		cfg.Sequential = true
		return &cfg
	}
	par := mc(2, 20, memcache.UDP)
	par.Sequential = false
	par.Partitions = 2

	incast := core.DefaultIncast(16)
	incast.Iterations = 40

	return []workload{
		{
			name:          "mc-udp-496-seq",
			why:           "two packets and several simulated syscalls per request: kernel thread hand-off and syscall path dominate, no barrier",
			deterministic: true,
			mc:            mc(1, 100, memcache.UDP),
		},
		{
			name:          "mc-udp-992-par2",
			why:           "same layers on the partitioned engine (33 partitions, 2 workers): quantum barrier and cross-partition exchange run here only",
			deterministic: true,
			mc:            par,
		},
		{
			name:          "incast-tcp-16",
			why:           "bulk full-size TCP segments through one shallow-buffer ToR with drops and RTOs: tcp, vswitch, link, nic and sim dispatch dominate",
			deterministic: true,
			incast:        &incast,
		},
		{
			name:          "mc-tcp-496-seq",
			why:           "thousands of TCP connections carrying small request/response pairs and pure ACKs: tcp the other way round from incast, highest allocs/pkt",
			deterministic: false,
			mc:            mc(1, 40, memcache.TCP),
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// toy returns the workload shrunk to test scale: two 8-node racks (so the
// partitioned workload still has a fabric partition), a handful of requests.
func (w workload) toy() workload {
	if w.mc != nil {
		cfg := *w.mc
		cfg.Topology = topology.Params{ServersPerRack: 8, RacksPerArray: 2, Arrays: 1}
		cfg.ServersPerRack = 1
		cfg.RequestsPerClient = 8
		cfg.StartSpread = sim.Millisecond
		w.mc = &cfg
	} else {
		cfg := *w.incast
		cfg.Senders = 4
		cfg.Iterations = 3
		w.incast = &cfg
	}
	return w
}

// partitioned reports whether the workload runs on the partitioned engine.
func (w workload) partitioned() bool { return w.mc != nil && !w.mc.Sequential }

// simResult is what one repetition simulated, reduced to what the harness
// checks and normalises by.
type simResult struct {
	// line is the canonical text of the simulated result; its hash is the
	// repetition's digest.
	line       string
	simSeconds float64
	attempted  uint64 // application requests issued
	lost       uint64 // requests that never completed
	// problem is set when the repetition missed its simulated deadline or
	// broke a predicate every workload must hold (no loss, and for the
	// memcached workloads no switch drops).
	problem string
}

func (r simResult) digest() string { return obs.HashBytes([]byte(r.line)) }

// run executes one repetition through the public entry point. sequential
// forces the sequential engine (the traced repetition needs its handler
// table); onCluster fires once the cluster is wired, before the apps install.
func (w workload) run(seed uint64, sequential bool, onCluster func(*core.Cluster)) (simResult, error) {
	var cluster *core.Cluster
	hook := func(c *core.Cluster) {
		cluster = c
		onCluster(c)
	}
	if w.incast != nil {
		cfg := *w.incast
		cfg.Seed = seed
		cfg.OnCluster = hook
		res, err := core.RunIncast(cfg)
		if err != nil {
			return simResult{attempted: uint64(cfg.Iterations), lost: uint64(cfg.Iterations)}, err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "incast elapsed_ps=%d bytes=%d iterations=%d retransmits=%d timeouts=%d fast_retransmits=%d switch_drops=%d packets=%d events=%d iter_ps=",
			int64(res.Elapsed), res.Bytes, len(res.IterTimes), res.Retransmits, res.Timeouts, res.FastRetransmits,
			cluster.SwitchDrops(), packets(cluster), cluster.Events())
		for _, d := range res.IterTimes {
			fmt.Fprintf(&b, "%d,", int64(d))
		}
		out := simResult{line: b.String(), simSeconds: res.Elapsed.Seconds(), attempted: uint64(cfg.Iterations)}
		if len(res.IterTimes) != cfg.Iterations {
			out.lost = uint64(cfg.Iterations - len(res.IterTimes))
			out.problem = fmt.Sprintf("%d of %d iterations completed", len(res.IterTimes), cfg.Iterations)
		}
		return out, nil
	}

	cfg := *w.mc
	cfg.Seed = seed
	cfg.OnCluster = hook
	if sequential {
		cfg.Sequential = true
		cfg.Partitions = 0
	}
	res, err := core.RunMemcached(cfg)
	if err != nil {
		return simResult{}, err
	}
	h := res.Overall
	line := fmt.Sprintf("memcached elapsed_ps=%d samples=%d attempted=%d completed=%d retried=%d switch_drops=%d mean_ps=%d p50_ps=%d p99_ps=%d p999_ps=%d max_ps=%d local=%d one_hop=%d two_hop=%d packets=%d events=%d",
		int64(res.Elapsed), res.Samples, res.Attempted, res.Completed, res.Retried, res.SwitchDrops,
		int64(h.Mean()), int64(h.Percentile(0.50)), int64(h.Percentile(0.99)), int64(h.Percentile(0.999)), int64(h.Max()),
		res.ByHop[topology.Local].Count(), res.ByHop[topology.OneHop].Count(), res.ByHop[topology.TwoHop].Count(),
		packets(cluster), cluster.Events())
	out := simResult{line: line, simSeconds: res.Elapsed.Seconds(), attempted: res.Attempted, lost: res.Lost()}
	switch {
	case res.ClientsDone != res.Clients:
		out.problem = fmt.Sprintf("simulated deadline: %d of %d clients finished", res.ClientsDone, res.Clients)
	case out.lost != 0:
		out.problem = fmt.Sprintf("%d requests lost", out.lost)
	case res.SwitchDrops != 0:
		out.problem = fmt.Sprintf("%d switch drops", res.SwitchDrops)
	}
	return out, nil
}

// packets counts simulated packets the way core.ModelBenchStats does: NIC
// transmits plus loopback deliveries.
func packets(c *core.Cluster) uint64 {
	var n uint64
	for _, m := range c.Machines {
		n += m.NIC().Stats.TxPackets + m.Stats.LoopbackPkts
	}
	return n
}
