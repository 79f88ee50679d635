// Command memcache runs one §4.2-style memcached latency experiment and
// prints the latency distribution, per-hop breakdown and server statistics.
package main

import (
	"flag"
	"fmt"
	"os"

	"diablo"
	"diablo/internal/apps/memcache"
	"diablo/internal/kernel"
)

func main() {
	arrays := flag.Int("arrays", 1, "arrays of 16 racks (1=496 nodes, 2=992, 4=1984)")
	requests := flag.Int("requests", 200, "requests per client (paper: 30000)")
	proto := flag.String("proto", "udp", "transport: udp or tcp")
	workers := flag.Int("workers", 4, "memcached worker threads")
	version := flag.String("version", "1.4.17", "memcached version: 1.4.15 or 1.4.17")
	kernelV := flag.String("kernel", "2.6.39", "kernel profile: 2.6.39, 3.5.7 or ideal")
	tenG := flag.Bool("10g", false, "10 Gbps interconnect")
	churn := flag.Int("churn", 0, "reconnect TCP every N requests (0 = persistent)")
	extraNs := flag.Int("extra-latency-ns", 0, "extra switch port-to-port latency in ns")
	seed := flag.Uint64("seed", 1, "master seed")
	faults := flag.String("faults", "", `fault schedule, e.g. "tordegrade rack=0 at=30ms dur=200ms loss=0.5; nicstall node=3 at=1ms dur=500us"`)
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (open in ui.perfetto.dev)")
	manifestOut := flag.String("manifest-out", "", "write a run-manifest JSON (schema diablo/run-manifest/v1)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "memcache: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	cfg := diablo.DefaultMemcached()
	cfg.Arrays = *arrays
	cfg.RequestsPerClient = *requests
	cfg.Workers = *workers
	cfg.Use10G = *tenG
	cfg.ChurnEvery = *churn
	cfg.ExtraSwitchLatency = diablo.Duration(*extraNs) * diablo.Nanosecond
	cfg.Seed = *seed
	switch *proto {
	case "udp":
		cfg.Proto = diablo.ProtoUDP
	case "tcp":
		cfg.Proto = diablo.ProtoTCP
	default:
		fmt.Fprintln(os.Stderr, "memcache: -proto must be udp or tcp")
		os.Exit(2)
	}
	if v, ok := memcache.VersionByName(*version); ok {
		cfg.Version = v
	} else {
		fmt.Fprintln(os.Stderr, "memcache: unknown -version", *version)
		os.Exit(2)
	}
	if p, err := kernel.ProfileByName(*kernelV); err == nil {
		cfg.Profile = p
	} else {
		fmt.Fprintln(os.Stderr, "memcache:", err)
		os.Exit(2)
	}

	if *faults != "" {
		plan, err := diablo.ParseFaultSpec(cfg.Seed, *faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memcache:", err)
			os.Exit(2)
		}
		cfg.Faults = plan
	}

	var obsn *diablo.Observation
	if *traceOut != "" || *manifestOut != "" {
		cfg.OnCluster = func(c *diablo.Cluster) { obsn = diablo.Observe(c, diablo.ObserveConfig{}) }
	}
	res, err := diablo.RunMemcached(cfg)
	if err == nil && obsn != nil {
		m := obsn.BuildManifest("memcache", cfg.Seed, map[string]any{
			"arrays":              cfg.Arrays,
			"requests_per_client": cfg.RequestsPerClient,
			"proto":               fmt.Sprint(cfg.Proto),
			"kernel":              cfg.Profile.Name,
			"version":             cfg.Version.Name,
		})
		var note string
		if note, err = obsn.WriteFiles(*traceOut, *manifestOut, m); err == nil {
			fmt.Printf("observed   %s\n", note)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memcache:", err)
		os.Exit(1)
	}
	fmt.Printf("scale      %d nodes (%d servers, %d clients), %s, kernel %s, memcached %s\n",
		31*16**arrays, res.Servers, res.Clients, *proto, cfg.Profile.Name, cfg.Version.Name)
	fmt.Printf("completed  %d/%d clients, %d samples in %v (util %.1f%%, %d switch drops, %d UDP retries)\n",
		res.ClientsDone, res.Clients, res.Samples, res.Elapsed, res.MeanUtil*100, res.SwitchDrops, res.Retried)
	if *faults != "" {
		fmt.Printf("faults     %d fault drops, %d/%d requests lost; %d edges:\n",
			res.FaultDrops, res.Lost(), res.Attempted, len(res.FaultEdges))
		for _, e := range res.FaultEdges {
			fmt.Printf("           %v\n", e)
		}
	}
	fmt.Printf("overall    %s\n", res.Overall.Summary())
	for _, hop := range []diablo.HopClass{diablo.Local, diablo.OneHop, diablo.TwoHop} {
		h := res.ByHop[hop]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("%-9v  %s\n", hop, h.Summary())
	}
	fmt.Println("\n# 95th-100th percentile CDF (latency µs, cumulative fraction)")
	for _, p := range res.Overall.TailCDF(0.95) {
		fmt.Printf("%12.1f %.5f\n", p.Value.Microseconds(), p.Fraction)
	}
}
