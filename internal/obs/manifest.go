package obs

// The run manifest is the machine-readable record of one observed run:
// enough to identify the configuration (experiment, seed, worker/partition
// topology), reproduce the result (the stats hash doubles as a replay
// digest), and post-process it (full stats series, engine balance, fault
// edges). EXPERIMENTS.md documents the schema; ManifestSchema versions it.

import (
	"encoding/json"
	"io"

	"diablo/internal/sim"
)

// ManifestSchema identifies the manifest JSON layout. Bump on any
// backwards-incompatible field change.
const ManifestSchema = "diablo/run-manifest/v1"

// Manifest is the machine-readable record of one observed run.
type Manifest struct {
	Schema     string         `json:"schema"`
	Experiment string         `json:"experiment"`
	Seed       uint64         `json:"seed"`
	Config     map[string]any `json:"config,omitempty"`

	Workers    int   `json:"workers"`
	Partitions int   `json:"partitions"`
	QuantumPs  int64 `json:"quantum_ps,omitempty"`

	ElapsedPs int64  `json:"elapsed_ps"`
	Events    uint64 `json:"events"`

	StatsHash string       `json:"stats_hash"`
	Series    []SeriesJSON `json:"series"`

	Engine     *EngineJSON     `json:"engine,omitempty"`
	FaultEdges []FaultEdgeJSON `json:"fault_edges,omitempty"`
}

// SeriesJSON is one sampled time series in columnar form (parallel arrays
// keep the file compact and trivially plottable).
type SeriesJSON struct {
	Name   string    `json:"name"`
	AtPs   []int64   `json:"at_ps"`
	Values []float64 `json:"values"`
}

// EngineJSON reports the parallel engine's execution balance. Barrier
// spin/park diagnostics are deliberately absent: they are wall-clock
// dependent and would make manifests non-reproducible (see sim.BarrierStats).
type EngineJSON struct {
	Quanta     uint64                `json:"quanta"`
	Partitions []EnginePartitionJSON `json:"partitions"`
}

// EnginePartitionJSON is one partition's share of the run.
type EnginePartitionJSON struct {
	ID          int     `json:"id"`
	Executed    uint64  `json:"executed"`
	BusyQuanta  uint64  `json:"busy_quanta"`
	Utilization float64 `json:"utilization"`
}

// FaultEdgeJSON is one fault-plan edge (injection or recovery instant).
type FaultEdgeJSON struct {
	AtPs   int64  `json:"at_ps"`
	Where  string `json:"where"`
	Detail string `json:"detail"`
}

// EngineFromIntrospection converts a sim snapshot into its manifest form.
func EngineFromIntrospection(in sim.EngineIntrospection) *EngineJSON {
	out := &EngineJSON{Quanta: in.Quanta}
	for _, p := range in.Partitions {
		out.Partitions = append(out.Partitions, EnginePartitionJSON{
			ID:          p.ID,
			Executed:    p.Executed,
			BusyQuanta:  p.BusyQuanta,
			Utilization: p.Utilization(in.Quanta),
		})
	}
	return out
}

// SeriesFromRegistry converts the registry's series into columnar JSON form,
// already name-sorted by Registry.Series.
func SeriesFromRegistry(r *Registry) []SeriesJSON {
	var out []SeriesJSON
	for _, ts := range r.Series() {
		s := SeriesJSON{Name: ts.Name, AtPs: make([]int64, 0, len(ts.Samples)), Values: make([]float64, 0, len(ts.Samples))}
		for _, p := range ts.Samples {
			s.AtPs = append(s.AtPs, int64(p.At))
			s.Values = append(s.Values, p.Value)
		}
		out = append(out, s)
	}
	return out
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	if m.Schema == "" {
		m.Schema = ManifestSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
