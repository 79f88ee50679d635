package campaign

import (
	"fmt"
	"runtime"
	"sync"

	"diablo/internal/apps/memcache"
	"diablo/internal/core"
	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

// RunConfig parameterizes campaign execution — everything here is
// result-invisible: workers change wall-clock time, never report bytes.
type RunConfig struct {
	// Workers is the number of campaign worker goroutines, each running
	// whole cells (0 = GOMAXPROCS). Cells themselves run on the sequential
	// engine — the campaign level is where the parallelism lives.
	Workers int
	// OnCell, if set, observes each finished cell (from the worker that ran
	// it, serialized by an internal mutex): progress reporting only.
	OnCell func(done, total int, c Cell, err error)
}

// CellResult is one executed cell: its model results plus the encoded
// run manifest that identifies it.
type CellResult struct {
	Cell     Cell
	Result   *core.MemcachedResult
	Manifest *obs.Manifest
	// ManifestJSON is the canonical manifest encoding; ManifestHash digests
	// it. Byte-identical on replay from Cell.Seed.
	ManifestJSON []byte
	ManifestHash string
}

// msDur converts spec milliseconds into simulated time.
func msDur(ms float64) sim.Duration { return sim.Duration(ms * float64(sim.Millisecond)) }

// CellPlan generates the cell's fault plan (nil for baseline cells). The
// plan is a pure function of the cell seed and the spec's fault axis, so a
// replayed cell redraws the identical schedule.
func CellPlan(spec *Spec, cell Cell) (*fault.Plan, error) {
	if cell.Baseline() {
		return nil, nil
	}
	topo, err := topology.New(cell.Shape)
	if err != nil {
		return nil, err
	}
	f := spec.Faults
	return fault.Generate(fault.GenConfig{
		Seed:    sim.DeriveSeed(cell.Seed, fmt.Sprintf("campaign/fault-plan/%02d", cell.Draw)),
		Start:   sim.Time(msDur(f.StartMs)),
		Horizon: msDur(f.HorizonMs),
		MeanDur: msDur(f.MeanDurMs),
		Events:  f.Events,
		Racks:   topo.Racks(),
		Nodes:   topo.Servers(),
	})
}

// cellConfig builds the cluster configuration for one cell.
func cellConfig(spec *Spec, cell Cell) (core.MemcachedConfig, error) {
	prof, err := kernel.ProfileByName(cell.Profile)
	if err != nil {
		return core.MemcachedConfig{}, err
	}
	mc := core.DefaultMemcached()
	mc.Topology = cell.Shape
	mc.Arrays = cell.Shape.Arrays
	mc.ServersPerRack = cell.Topology.ServersPerRack()
	mc.Profile = prof
	mc.Proto = memcache.UDP
	if cell.Workload.Proto == "tcp" {
		mc.Proto = memcache.TCP
	}
	mc.RequestsPerClient = cell.Workload.Requests
	mc.MaxClients = cell.Workload.MaxClients
	mc.Warmup = cell.Workload.Warmup
	mc.Use10G = cell.Workload.Use10G
	if cell.Workload.Version != "" {
		mc.Version, _ = memcache.VersionByName(cell.Workload.Version)
	}
	mc.ChurnEvery = cell.Workload.ChurnEvery
	mc.ExtraSwitchLatency = sim.Duration(cell.Workload.ExtraSwitchNs) * sim.Nanosecond
	mc.Seed = cell.Seed
	// Cells run sequentially (Partitions stays 0): results do not depend on
	// how a cluster is executed (DESIGN.md §5.9), and the campaign worker pool
	// is the parallelism — N sequential cells scale better than N clusters
	// fighting over cores.
	plan, err := CellPlan(spec, cell)
	if err != nil {
		return core.MemcachedConfig{}, err
	}
	mc.Faults = plan
	return mc, nil
}

// configMap flattens the cell's resolved knobs into the manifest config —
// with the seed, everything needed to replay the cell without the spec file.
func configMap(spec *Spec, cell Cell) map[string]any {
	m := map[string]any{
		"campaign":            spec.Name,
		"cell":                cell.Name,
		"cell_index":          cell.Index,
		"shape":               cell.Shape.ShapeName(),
		"rack_oversub":        cell.Shape.RackOversubscription(),
		"array_oversub":       cell.Shape.ArrayOversubscription(),
		"mc_servers_per_rack": cell.Topology.ServersPerRack(),
		"profile":             cell.Profile,
		"workload":            cell.Workload.Name,
		"proto":               cell.Workload.Proto,
		"requests":            cell.Workload.Requests,
		"max_clients":         cell.Workload.MaxClients,
		"warmup":              cell.Workload.Warmup,
		"use_10g":             cell.Workload.Use10G,
		"draw":                cell.Draw,
		"engine":              "sequential",
	}
	// The newer workload knobs are recorded only when set, so manifests of
	// specs that do not use them keep their bytes.
	if w := cell.Workload; w.Version != "" {
		m["version"] = w.Version
	}
	if w := cell.Workload; w.ChurnEvery != 0 {
		m["churn_every"] = w.ChurnEvery
	}
	if w := cell.Workload; w.ExtraSwitchNs != 0 {
		m["extra_switch_ns"] = w.ExtraSwitchNs
	}
	if !cell.Baseline() {
		m["fault_events"] = spec.Faults.Events
		m["fault_start_ms"] = spec.Faults.StartMs
		m["fault_horizon_ms"] = spec.Faults.HorizonMs
		m["fault_mean_dur_ms"] = spec.Faults.MeanDurMs
	}
	return m
}

// RunCell executes one cell from its seed: a full cluster run with the
// observability layer attached (stats registry, no trace), returning the
// model result and the cell's canonical manifest bytes. Calling RunCell
// twice with the same spec and cell yields byte-identical ManifestJSON —
// the replay contract TestCellReplay asserts.
func RunCell(spec *Spec, cell Cell) (*CellResult, error) {
	mc, err := cellConfig(spec, cell)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", cell.Name, err)
	}
	var o *core.Observation
	mc.OnCluster = func(c *core.Cluster) { o = core.Observe(c, core.ObserveConfig{TraceEvents: -1}) }
	res, err := core.RunMemcached(mc)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", cell.Name, err)
	}
	manifest := o.BuildManifest("campaign/"+spec.Name+"/"+cell.Name, cell.Seed, configMap(spec, cell))
	b, err := manifest.EncodeJSON()
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", cell.Name, err)
	}
	return &CellResult{
		Cell:         cell,
		Result:       res,
		Manifest:     manifest,
		ManifestJSON: b,
		ManifestHash: obs.HashBytes(b),
	}, nil
}

// ReplayCell re-runs one cell of the spec by name, overriding the cell seed
// with a manifest-recorded one. seed 0 keeps the spec-derived seed; a
// non-zero seed must match it (a mismatch means the manifest belongs to a
// different spec revision, which can never replay byte-identically).
func ReplayCell(spec *Spec, name string, seed uint64) (*CellResult, error) {
	cell, err := spec.CellByName(name)
	if err != nil {
		return nil, err
	}
	if seed != 0 && seed != cell.Seed {
		return nil, fmt.Errorf("campaign: cell %s derives seed %d, manifest records %d: spec drifted from the recorded run",
			name, cell.Seed, seed)
	}
	return RunCell(spec, cell)
}

// RunCells executes every cell of the spec across rc.Workers goroutines and
// returns the results in enumeration order. The results, and the report
// BuildReport makes of them, are a pure function of the spec: worker count
// and completion order never leak in.
func RunCells(spec *Spec, rc RunConfig) ([]*CellResult, error) {
	if rc.Workers < 0 {
		return nil, fmt.Errorf("campaign: RunConfig.Workers must not be negative (got %d)", rc.Workers)
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	workers := rc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	results := make([]*CellResult, len(cells))
	errs := make([]error, len(cells))
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		progress sync.Mutex
		done     int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = RunCell(spec, cells[i])
				if rc.OnCell != nil {
					progress.Lock()
					done++
					rc.OnCell(done, len(cells), cells[i], errs[i])
					progress.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign: %d/%d cells ran, first failure: %w", len(cells)-countErrs(errs), len(cells), errs[i])
		}
	}
	return results, nil
}

func countErrs(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}
