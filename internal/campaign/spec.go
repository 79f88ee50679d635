// Package campaign is the deterministic Monte-Carlo sweep orchestrator
// (ROADMAP item 4): it enumerates scenario cells over the sweep axes
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

	"diablo/internal/kernel"
	"diablo/internal/topology"
)

// SpecSchema identifies the campaign spec JSON layout.
const SpecSchema = "diablo/campaign-spec/v1"

// maxCells bounds a spec's cell count (the nightly preset has 240), so a typo
// such as draws = 1e9 fails validation instead of exhausting memory in Cells.
const maxCells = 1 << 16

// Spec declares a campaign: the cross-product of its axes is the cell set.
// Cell enumeration order is part of the spec's identity — topologies
// (outer), then profiles, then workloads, then fault draws.
type Spec struct {
	Schema string `json:"schema"`
	// Name labels the campaign and salts every cell seed.
	Name string `json:"name"`
	// MasterSeed is the campaign-level seed every cell seed derives from.
	MasterSeed uint64 `json:"master_seed"`

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

// WorkloadAxis is one point on the workload-mix axis: the protocol plus the
// load shape driven through the ETC generator.
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
}

// FaultAxis parameterizes the Monte-Carlo fault draws. Each draw d >= 1
// generates an independent fault.Generate plan from the cell's own seed;
// draw 0 of every axis combination is the unfaulted baseline cell that
// degradation is measured against.
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
		if s.Faults.Draws > 0 && p.RacksPerArray*p.Arrays < 2 {
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
	}
	f := s.Faults
	if f.Draws < 0 {
		return fmt.Errorf("campaign: negative fault draws %d", f.Draws)
	}
	cells := 1
	for _, k := range []int{len(s.Topologies), len(s.Profiles), len(s.Workloads), min(f.Draws, maxCells) + 1} {
		if cells *= k; cells > maxCells {
			return fmt.Errorf("campaign: spec enumerates more than %d cells", maxCells)
		}
	}
	if f.Draws > 0 {
		if f.Events <= 0 {
			return fmt.Errorf("campaign: fault draws need a positive event count")
		}
		if f.HorizonMs <= 0 || f.MeanDurMs <= 0 || f.StartMs < 0 {
			return fmt.Errorf("campaign: fault draws need positive horizon_ms/mean_dur_ms and non-negative start_ms")
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
