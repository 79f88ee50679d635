// Package campaign is the deterministic Monte-Carlo sweep orchestrator: it
// enumerates scenario cells over the sweep axes
// (topology shape/oversubscription × kernel profile × workload mix ×
// fault-plan draw), runs each cell as a full core cluster simulation, and
// aggregates the per-cell run manifests (diablo/run-manifest/v1) into one
// comparison report.
//
// The determinism contract extends DESIGN.md §5.5 to the campaign level:
// the same spec + master seed yields a byte-identical aggregate report
// regardless of campaign worker count or cell execution order, and any cell
// is individually replayable byte-for-byte from the seed recorded in its
// manifest (the gem5-standardization packaging discipline: seeds + config
// in the artifact make every result reproducible).
package campaign

import (
	"encoding/json"
	"fmt"
	"slices"

	"diablo/internal/apps/memcache"
	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// SpecSchema identifies the campaign spec JSON layout.
const SpecSchema = "diablo/campaign-spec/v1"

// maxCells bounds a spec's cell count (the nightly preset has 240), so a typo
// such as draws = 1e9 fails validation instead of exhausting memory in Cells.
const maxCells = 1 << 16

// Spec declares a campaign: the cross-product of its axes is the cell set.
// Cell enumeration order is part of the spec's identity — topologies
// (outer), then profiles, then workloads, then seeds, then fault draws.
type Spec struct {
	Schema string `json:"schema"`
	// Name labels the campaign and salts every cell seed.
	Name string `json:"name"`
	// MasterSeed is the campaign-level seed every cell seed derives from
	// when Seeds is empty.
	MasterSeed uint64 `json:"master_seed"`
	// Seeds, when set, replicates the sweep once per seed: every cell of
	// replicate r runs at Seeds[r], so the cells compared inside one
	// replicate differ only in their axis values (common random numbers).
	// Empty derives each cell's seed from MasterSeed and the cell name.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Topologies is the shape/oversubscription axis.
	Topologies []TopologyAxis `json:"topologies"`
	// Profiles is the kernel-version axis (kernel.ProfileByName names).
	Profiles []string `json:"profiles"`
	// Workloads is the workload-mix axis.
	Workloads []WorkloadAxis `json:"workloads"`
	// Faults is the Monte-Carlo fault axis; Draws = 0 sweeps healthy cells
	// only.
	Faults FaultAxis `json:"faults"`
}

// TopologyAxis is one point on the topology axis.
type TopologyAxis struct {
	// Shape is the canonical "SxRxA" Clos form (topology.ParseShape);
	// ServersPerRack doubles as the rack oversubscription ratio, RacksPerArray
	// as the array oversubscription ratio.
	Shape string `json:"shape"`
	// MemcachedServersPerRack places that many memcached servers at the head
	// of each rack (0 = 1). Must stay below the shape's ServersPerRack so
	// every rack keeps client nodes.
	MemcachedServersPerRack int `json:"memcached_servers_per_rack,omitempty"`
}

// ServersPerRack returns the effective memcached server count per rack.
func (t TopologyAxis) ServersPerRack() int {
	if t.MemcachedServersPerRack <= 0 {
		return 1
	}
	return t.MemcachedServersPerRack
}

// WorkloadAxis is one point on the workload-mix axis: the application, the
// hardware it runs on, the protocol and the load shape (memcached load is
// driven through the ETC generator).
type WorkloadAxis struct {
	// Name labels the mix in cell names; must be unique within a spec.
	Name string `json:"name"`
	// Proto is "udp" or "tcp".
	Proto string `json:"proto"`
	// Requests is the per-client request count.
	Requests int `json:"requests"`
	// MaxClients bounds loaded client nodes (0 = every non-server node).
	MaxClients int `json:"max_clients,omitempty"`
	// Warmup discards each client's first N samples.
	Warmup int `json:"warmup,omitempty"`
	// Use10G upgrades the interconnect to the paper's 10 Gbps variant.
	Use10G bool `json:"use_10g,omitempty"`
	// Version is the memcached release (memcache.VersionByName; empty =
	// 1.4.17).
	Version string `json:"version,omitempty"`
	// ChurnEvery cycles each client's TCP connection every N requests
	// (0 = never).
	ChurnEvery int `json:"churn_every,omitempty"`
	// ExtraSwitchNs adds port-to-port latency at every switch level, in
	// simulated nanoseconds.
	ExtraSwitchNs int64 `json:"extra_switch_ns,omitempty"`
	// App is memcached (empty) or "incast", §4.1's synchronized block read:
	// an incast cell's shape is its size, one rack with node 0 the client and
	// the others its senders, and Requests its iteration count.
	App string `json:"app,omitempty"`
	// System names the hardware bundle of the cluster (see systems).
	System string `json:"system,omitempty"`
	// CPUGHz sets the server clock (0 keeps the system's).
	CPUGHz float64 `json:"cpu_ghz,omitempty"`
	// Epoll runs the incast client on epoll instead of a thread per sender.
	Epoll bool `json:"epoll,omitempty"`
	// ClosedLoop is Figure 8's load test: no think time, and every client
	// starts within 1 ms.
	ClosedLoop bool `json:"closed_loop,omitempty"`
}

// faultLimitMs bounds start_ms + horizon_ms and 37 mean_dur_ms (an
// exponential window draw is below 37 means: -ln 2^-53 < 37), so every edge
// of a generated plan lands before half of sim.Never, inside the engine's
// schedulable range.
const faultLimitMs = float64(sim.Never/4) / float64(sim.Millisecond)

// FaultAxis parameterizes the Monte-Carlo fault draws. Each draw d >= 1
// generates an independent fault.Generate plan from the cell's own seed, or
// runs the explicit Plan; draw 0 of every axis combination is the unfaulted
// baseline cell that degradation is measured against.
type FaultAxis struct {
	// Draws is the number of faulted cells per axis combination.
	Draws int `json:"draws"`
	// Events is the number of fault windows per generated plan.
	Events int `json:"events"`
	// StartMs / HorizonMs bound the onset window in simulated milliseconds.
	StartMs   float64 `json:"start_ms"`
	HorizonMs float64 `json:"horizon_ms"`
	// MeanDurMs is the mean fault window length in simulated milliseconds.
	MeanDurMs float64 `json:"mean_dur_ms"`
	// Plan, when set, is the one faulted draw's schedule in the
	// fault.ParseSpec grammar, its loss streams seeded with the cell seed;
	// Draws is then 1 and the generator fields above stay zero.
	Plan string `json:"plan,omitempty"`
}

// Validate checks the spec against the axis grammars; every error names the
// offending axis point.
func (s *Spec) Validate() error {
	if s.Schema != "" && s.Schema != SpecSchema {
		return fmt.Errorf("campaign: spec schema %q, want %q", s.Schema, SpecSchema)
	}
	if s.Name == "" {
		return fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Topologies) == 0 || len(s.Profiles) == 0 || len(s.Workloads) == 0 {
		return fmt.Errorf("campaign: every axis needs at least one point (topologies %d, profiles %d, workloads %d)",
			len(s.Topologies), len(s.Profiles), len(s.Workloads))
	}
	for i, t := range s.Topologies {
		p, err := topology.ParseShape(t.Shape)
		if err != nil {
			return fmt.Errorf("campaign: topologies[%d]: %w", i, err)
		}
		if t.ServersPerRack() >= p.ServersPerRack {
			return fmt.Errorf("campaign: topologies[%d] %s: %d memcached servers/rack leaves no clients",
				i, t.Shape, t.ServersPerRack())
		}
		if s.Faults.Draws > 0 && s.Faults.Plan == "" && p.RacksPerArray*p.Arrays < 2 {
			return fmt.Errorf("campaign: topologies[%d] %s: fault draws need a multi-rack shape (rack-uplink faults)", i, t.Shape)
		}
	}
	for i, name := range s.Profiles {
		if _, err := kernel.ProfileByName(name); err != nil {
			return fmt.Errorf("campaign: profiles[%d]: %w", i, err)
		}
	}
	seen := map[string]bool{}
	for i, w := range s.Workloads {
		if w.Name == "" {
			return fmt.Errorf("campaign: workloads[%d] needs a name", i)
		}
		if seen[w.Name] {
			return fmt.Errorf("campaign: duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Proto != "udp" && w.Proto != "tcp" {
			return fmt.Errorf("campaign: workloads[%d] %s: proto %q (want udp or tcp)", i, w.Name, w.Proto)
		}
		if w.Requests <= 0 {
			return fmt.Errorf("campaign: workloads[%d] %s: requests must be positive", i, w.Name)
		}
		if w.Warmup < 0 || w.Warmup >= w.Requests {
			return fmt.Errorf("campaign: workloads[%d] %s: warmup %d out of range [0, %d)", i, w.Name, w.Warmup, w.Requests)
		}
		if w.MaxClients < 0 {
			return fmt.Errorf("campaign: workloads[%d] %s: negative max_clients", i, w.Name)
		}
		if _, ok := memcache.VersionByName(w.Version); w.Version != "" && !ok {
			return fmt.Errorf("campaign: workloads[%d] %s: unknown memcached version %q", i, w.Name, w.Version)
		}
		if w.ChurnEvery < 0 {
			return fmt.Errorf("campaign: workloads[%d] %s: negative churn_every", i, w.Name)
		}
		if w.ExtraSwitchNs < 0 {
			return fmt.Errorf("campaign: workloads[%d] %s: negative extra_switch_ns", i, w.Name)
		}
		if !slices.Contains(systems, w.System) {
			return fmt.Errorf("campaign: workloads[%d] %s: unknown system %q (want ns2-style, physical-proxy or 10g-low-latency)", i, w.Name, w.System)
		}
		if w.CPUGHz != 0 && !(w.CPUGHz >= 0.001 && w.CPUGHz <= 1000) {
			return fmt.Errorf("campaign: workloads[%d] %s: cpu_ghz %g outside [0.001, 1000]", i, w.Name, w.CPUGHz)
		}
		if w.App != "" && w.App != "incast" {
			return fmt.Errorf("campaign: workloads[%d] %s: unknown app %q (want incast, or none for memcached)", i, w.Name, w.App)
		}
		if w.App == "" && w.Epoll {
			return fmt.Errorf("campaign: workloads[%d] %s: epoll applies to incast only", i, w.Name)
		}
		if w.App == "incast" && (w.Proto != "tcp" || w.MaxClients != 0 || w.Warmup != 0 || w.Use10G ||
			w.Version != "" || w.ChurnEvery != 0 || w.ExtraSwitchNs != 0 || w.ClosedLoop) {
			return fmt.Errorf("campaign: workloads[%d] %s: incast runs over tcp and takes only requests, system, cpu_ghz and epoll", i, w.Name)
		}
	}
	f := s.Faults
	if f.Draws < 0 {
		return fmt.Errorf("campaign: negative fault draws %d", f.Draws)
	}
	cells := 1
	for _, k := range []int{len(s.Topologies), len(s.Profiles), len(s.Workloads), max(len(s.Seeds), 1), min(f.Draws, maxCells) + 1} {
		if cells *= k; cells > maxCells {
			return fmt.Errorf("campaign: spec enumerates more than %d cells", maxCells)
		}
	}
	// Each workload against each shape (the cell bound above bounds this
	// loop): incast needs one rack, and max_clients must fit in the client
	// nodes a shape leaves.
	for i, t := range s.Topologies {
		p, _ := topology.ParseShape(t.Shape)
		for j, w := range s.Workloads {
			if w.App == "incast" {
				if p.RacksPerArray*p.Arrays != 1 {
					return fmt.Errorf("campaign: workloads[%d] %s: incast needs a one-rack shape, topologies[%d] is %s", j, w.Name, i, t.Shape)
				}
				continue
			}
			if limit := (p.ServersPerRack - t.ServersPerRack()) * p.RacksPerArray * p.Arrays; w.MaxClients > limit {
				return fmt.Errorf("campaign: workloads[%d] %s: max_clients %d exceeds the %d client nodes of topologies[%d] %s",
					j, w.Name, w.MaxClients, limit, i, t.Shape)
			}
		}
	}
	seeds := map[uint64]bool{}
	for i, seed := range s.Seeds {
		if seeds[seed] {
			return fmt.Errorf("campaign: seeds[%d]: duplicate seed %d", i, seed)
		}
		seeds[seed] = true
	}
	if f.Plan != "" {
		if f.Draws != 1 || f.Events != 0 || f.StartMs != 0 || f.HorizonMs != 0 || f.MeanDurMs != 0 {
			return fmt.Errorf("campaign: faults.plan runs as the one draw: draws must be 1 and events, start_ms, horizon_ms and mean_dur_ms zero")
		}
		if p, err := fault.ParseSpec(0, f.Plan); err != nil {
			return fmt.Errorf("campaign: faults.plan: %w", err)
		} else if p.Empty() {
			return fmt.Errorf("campaign: faults.plan schedules nothing")
		}
	} else if f.Draws > 0 {
		if f.Events <= 0 {
			return fmt.Errorf("campaign: fault draws need a positive event count")
		}
		if f.HorizonMs <= 0 || f.MeanDurMs <= 0 || f.StartMs < 0 {
			return fmt.Errorf("campaign: fault draws need positive horizon_ms/mean_dur_ms and non-negative start_ms")
		}
		if f.StartMs+f.HorizonMs > faultLimitMs {
			return fmt.Errorf("campaign: faults start_ms + horizon_ms = %g ms is beyond the schedulable %g ms", f.StartMs+f.HorizonMs, faultLimitMs)
		}
		if 37*f.MeanDurMs > faultLimitMs {
			return fmt.Errorf("campaign: faults mean_dur_ms %g ms draws windows beyond the schedulable %g ms (at most %g ms)", f.MeanDurMs, faultLimitMs, faultLimitMs/37)
		}
	}
	return nil
}

// ParseSpec decodes and validates a spec file.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: spec decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
