package campaign

import (
	"cmp"
	"fmt"
)

// Presets returns the built-in campaign names.
func Presets() []string {
	return []string{"smoke", "nightly", "fig6a", "fig6b", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"faultmc", "faultincast"}
}

// Preset returns a built-in campaign spec by name.
//
//   - "smoke": the 8-cell CI gate — two small shapes × two kernels ×
//     one UDP mix × (baseline + 1 fault draw). Seconds of wall clock; its
//     report is the CAMPAIGN_results.json artifact every CI run uploads.
//   - "nightly": the full-scale sweep — three paper-class shapes × two
//     kernels × UDP and TCP mixes × (baseline + 19 fault draws) = 240
//     cells of 248–496 nodes each.
//   - "fig6a", "fig6b": the §4.1 incast figures at seed 1 (see
//     incastFigure); "fig8" … "fig15": the §4.2 memcached figures at seed 1.
//     `diablo run figN` runs them at its -seed, and at its -iterations
//     (incast) or -requests (memcached).
//   - "faultmc", "faultincast": the graceful-degradation experiments at
//     seed 1, a baseline cell and one cell under an explicit fault plan.
func Preset(name string) (*Spec, error) {
	switch name {
	case "smoke":
		return &Spec{
			Schema:     SpecSchema,
			Name:       "smoke",
			MasterSeed: 1,
			Topologies: []TopologyAxis{
				{Shape: "4x2x1", MemcachedServersPerRack: 1},
				{Shape: "6x2x1", MemcachedServersPerRack: 1},
			},
			Profiles: []string{"linux-2.6.39.3", "linux-3.5.7"},
			Workloads: []WorkloadAxis{
				{Name: "udp-s", Proto: "udp", Requests: 6, Warmup: 1},
			},
			Faults: FaultAxis{Draws: 1, Events: 2, StartMs: 1, HorizonMs: 30, MeanDurMs: 20},
		}, nil
	case "nightly":
		return &Spec{
			Schema:     SpecSchema,
			Name:       "nightly",
			MasterSeed: 1,
			Topologies: []TopologyAxis{
				{Shape: "31x16x1", MemcachedServersPerRack: 2}, // the paper's 496-node array
				{Shape: "31x8x1", MemcachedServersPerRack: 2},  // half the array fan-in (8:1 array oversub)
				{Shape: "16x16x1", MemcachedServersPerRack: 2}, // half the rack fan-in (16:1 rack oversub)
			},
			Profiles: []string{"linux-2.6.39.3", "linux-3.5.7"},
			Workloads: []WorkloadAxis{
				{Name: "udp", Proto: "udp", Requests: 30, MaxClients: 64, Warmup: 3},
				{Name: "tcp", Proto: "tcp", Requests: 30, MaxClients: 64, Warmup: 3},
			},
			Faults: FaultAxis{Draws: 19, Events: 3, StartMs: 5, HorizonMs: 200, MeanDurMs: 100},
		}, nil
	case "fig6a": // incast goodput at 1 Gbps: DIABLO against two baselines
		return incastFigure(name,
			WorkloadAxis{Name: "diablo"},
			WorkloadAxis{Name: "ns2-style", System: "ns2-style"},
			WorkloadAxis{Name: "physical-proxy", System: "physical-proxy"}), nil
	case "fig6b": // incast at 10 Gbps: syscall style × CPU clock
		return incastFigure(name,
			WorkloadAxis{Name: "pthread-4ghz", System: "10g-low-latency", CPUGHz: 4},
			WorkloadAxis{Name: "epoll-4ghz", System: "10g-low-latency", CPUGHz: 4, Epoll: true},
			WorkloadAxis{Name: "pthread-2ghz", System: "10g-low-latency", CPUGHz: 2},
			WorkloadAxis{Name: "epoll-2ghz", System: "10g-low-latency", CPUGHz: 2, Epoll: true}), nil
	case "fig8": // the 16-node rack: 2 memcached servers, 2-14 closed-loop TCP clients
		s := seed1(name, TopologyAxis{Shape: "16x1x1", MemcachedServersPerRack: 2})
		for _, sys := range []string{"physical-proxy", ""} {
			for n := 2; n <= 14; n += 2 {
				s.Workloads = append(s.Workloads, WorkloadAxis{Name: fmt.Sprintf("%s-%d", cmp.Or(sys, "diablo"), n),
					Proto: "tcp", Requests: 600, Warmup: 20, MaxClients: n, System: sys, ClosedLoop: true})
			}
		}
		return s, nil
	case "fig9": // 124 nodes (the paper's 120), memcached versions under TCP churn
		s := seed1(name, TopologyAxis{Shape: "31x4x1", MemcachedServersPerRack: 2})
		for _, sys := range []string{"physical-proxy", ""} {
			for _, v := range []string{"1.4.17", "1.4.15"} {
				s.Workloads = append(s.Workloads, WorkloadAxis{Name: cmp.Or(sys, "diablo") + "-" + v,
					Proto: "tcp", Requests: 150, Warmup: 5, Version: v, ChurnEvery: 40, System: sys})
			}
		}
		return s, nil
	case "fig10": // latency PMF by hop count, 1 vs 10 Gbps
		return figure(name, []int{4}, nil,
			WorkloadAxis{Name: "1g-udp", Proto: "udp"},
			WorkloadAxis{Name: "10g-udp", Proto: "udp", Use10G: true}), nil
	case "fig11": // the tail across scales
		return figure(name, []int{1, 2, 4}, nil,
			WorkloadAxis{Name: "1g-udp", Proto: "udp"}), nil
	case "fig12": // switch-latency sensitivity
		return figure(name, []int{4}, nil,
			WorkloadAxis{Name: "+0ns", Proto: "udp", Use10G: true},
			WorkloadAxis{Name: "+50ns", Proto: "udp", Use10G: true, ExtraSwitchNs: 50},
			WorkloadAxis{Name: "+100ns", Proto: "udp", Use10G: true, ExtraSwitchNs: 100}), nil
	case "fig13": // TCP vs UDP across scales and fabrics
		return figure(name, []int{1, 2, 4}, nil,
			WorkloadAxis{Name: "1g-udp", Proto: "udp"},
			WorkloadAxis{Name: "1g-tcp", Proto: "tcp"},
			WorkloadAxis{Name: "10g-udp", Proto: "udp", Use10G: true},
			WorkloadAxis{Name: "10g-tcp", Proto: "tcp", Use10G: true}), nil
	case "fig14": // kernel versions
		return figure(name, []int{4}, []string{"linux-2.6.39.3", "linux-3.5.7"},
			WorkloadAxis{Name: "10g-udp", Proto: "udp", Use10G: true}), nil
	case "fig15": // memcached versions under TCP connection churn
		return figure(name, []int{1, 4}, nil,
			WorkloadAxis{Name: "tcp-1.4.17", Proto: "tcp", Version: "1.4.17", ChurnEvery: 25},
			WorkloadAxis{Name: "tcp-1.4.15", Proto: "tcp", Version: "1.4.15", ChurnEvery: 25}), nil
	case "faultmc": // memcached fan-out while rack 0's uplink drops half its frames
		s := seed1(name, TopologyAxis{Shape: "31x16x1", MemcachedServersPerRack: 2})
		s.Workloads = []WorkloadAxis{{Name: "udp", Proto: "udp", Requests: 40, MaxClients: 64, Warmup: 2}}
		s.Faults = FaultAxis{Draws: 1, Plan: "tordegrade rack=0 at=30ms dur=200ms loss=0.5"}
		return s, nil
	case "faultincast": // 8-sender incast over a client downlink losing 10% all run long
		s := seed1(name, TopologyAxis{Shape: "9x1x1"})
		s.Workloads = []WorkloadAxis{{Name: "incast", App: "incast", Proto: "tcp", Requests: 10}}
		s.Faults = FaultAxis{Draws: 1, Plan: "edgedegrade node=0 at=0 dur=600s loss=0.1 dir=down"}
		return s, nil
	default:
		return nil, fmt.Errorf("campaign: unknown preset %q (known: %v)", name, Presets())
	}
}

// seed1 starts a paper-figure preset: the given shapes under Linux 2.6.39.3,
// at seed 1 only.
func seed1(name string, topologies ...TopologyAxis) *Spec {
	return &Spec{Schema: SpecSchema, Name: name, MasterSeed: 1, Seeds: []uint64{1},
		Topologies: topologies, Profiles: []string{"linux-2.6.39.3"}}
}

// incastFigure builds a §4.1 incast preset: one rack per sender count, up to
// the paper's 24 switch ports, with 40 iterations per point.
func incastFigure(name string, workloads ...WorkloadAxis) *Spec {
	s := seed1(name)
	for _, n := range []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24} {
		s.Topologies = append(s.Topologies, TopologyAxis{Shape: fmt.Sprintf("%dx1x1", n+1)})
	}
	for _, w := range workloads {
		w.App, w.Proto, w.Requests = "incast", "tcp", 40
		s.Workloads = append(s.Workloads, w)
	}
	return s
}

// figure builds a paper-figure preset on the Figure 7 topology: 31 servers
// per rack and 16 racks per array, at the given array counts (1, 2, 4 =
// 496, 992, 1,984 nodes), with 2 memcached servers per rack. Every workload
// runs 150 requests per client after 5 warmup requests, at seed 1 only.
// profiles defaults to Linux 2.6.39.3.
func figure(name string, arrays []int, profiles []string, workloads ...WorkloadAxis) *Spec {
	s := seed1(name)
	if profiles != nil {
		s.Profiles = profiles
	}
	for _, a := range arrays {
		s.Topologies = append(s.Topologies, TopologyAxis{Shape: fmt.Sprintf("31x16x%d", a), MemcachedServersPerRack: 2})
	}
	for _, w := range workloads {
		w.Requests, w.Warmup = 150, 5
		s.Workloads = append(s.Workloads, w)
	}
	return s
}
