package campaign

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"diablo/internal/apps/incast"
	"diablo/internal/apps/memcache"
	"diablo/internal/core"
	"diablo/internal/cpu"
	"diablo/internal/fault"
	"diablo/internal/kernel"
	"diablo/internal/metrics"
	"diablo/internal/obs"
	"diablo/internal/sim"
	"diablo/internal/topology"
	"diablo/internal/vswitch"
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
	Cell Cell
	// Result summarizes the run; an incast cell fills it as runApp says.
	Result *core.MemcachedResult
	// Incast is an incast cell's own result, goodput and timeouts included
	// (zero for memcached).
	Incast incast.Result
	// Plan is the fault schedule the cell ran (nil on baseline cells).
	Plan     *fault.Plan
	Manifest *obs.Manifest
	// Trace is the run's Chrome trace, nil unless the cell ran with its
	// trace on.
	Trace *obs.Trace
	// ManifestJSON is the canonical manifest encoding; ManifestHash digests
	// it. Byte-identical on replay from Cell.Seed.
	ManifestJSON []byte
	ManifestHash string
}

// msDur converts spec milliseconds into simulated time.
func msDur(ms float64) sim.Duration { return sim.Duration(ms * float64(sim.Millisecond)) }

// CellPlan generates the cell's fault plan (nil for baseline cells), or
// parses the axis's explicit plan with the cell seed as its loss-stream seed.
// The plan is a pure function of the cell seed and the spec's fault axis, so
// a replayed cell redraws the identical schedule.
func CellPlan(spec *Spec, cell Cell) (*fault.Plan, error) {
	if cell.Baseline() {
		return nil, nil
	}
	if spec.Faults.Plan != "" {
		return fault.ParseSpec(cell.Seed, spec.Faults.Plan)
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

// systems names the hardware bundles a workload's System may pick: the
// machines the paper compares DIABLO's own models ("") with.
var systems = []string{"", "ns2-style", "physical-proxy", "10g-low-latency"}

// runApp runs the cell's application on its system with observe attached
// and summarizes it. An incast cell fills the summary a memcached cell
// reports: one sample per block-read iteration, its client the one client
// and its senders the servers, TCP retransmits as retries; its own result
// comes back beside it.
func runApp(cell Cell, plan *fault.Plan, observe func(*core.Cluster) *core.Observation) (*core.MemcachedResult, incast.Result, error) {
	w := cell.Workload
	prof, err := kernel.ProfileByName(cell.Profile)
	if err != nil {
		return nil, incast.Result{}, err
	}
	// A zero switch or clock keeps the model's own.
	var tor, array vswitch.Params
	ghz, daemon := 0.0, kernel.DefaultDaemon()
	switch w.System {
	case "ns2-style": // a traditional network simulator: drop-tail queues, free host software
		tor, ghz, prof = vswitch.NS2DropTail("tor", 0), 1000, kernel.IdealHost()
	case "physical-proxy": // 3 GHz Xeons, shared-buffer switches, a shared cluster's background load
		tor, array = vswitch.SharedBufferCommodity("tor", 0), vswitch.SharedBufferCommodity("array", 0)
		array.SharedBuffer = 2 << 20
		ghz, daemon = 3, kernel.HeavyDaemon()
	case "10g-low-latency": // Figure 6b's 10 Gbps, 100 ns rack switch
		tor = vswitch.TenGigLowLatency("tor", 0)
	}
	var clock cpu.Model
	if ghz = cmp.Or(w.CPUGHz, ghz); ghz != 0 {
		clock = cpu.GHz(ghz)
	}

	if w.App != "incast" {
		mc := core.DefaultMemcached()
		mc.Topology = cell.Shape
		mc.ServersPerRack = cell.Topology.ServersPerRack()
		mc.Profile, mc.Daemon, mc.CPU, mc.ToR, mc.Array = prof, daemon, clock, tor, array
		mc.Proto = memcache.UDP
		if w.Proto == "tcp" {
			mc.Proto = memcache.TCP
		}
		mc.RequestsPerClient = w.Requests
		mc.MaxClients = w.MaxClients
		mc.Warmup = w.Warmup
		mc.Use10G = w.Use10G
		if w.Version != "" {
			mc.Version, _ = memcache.VersionByName(w.Version)
		}
		mc.ChurnEvery = w.ChurnEvery
		mc.ExtraSwitchLatency = sim.Duration(w.ExtraSwitchNs) * sim.Nanosecond
		if w.ClosedLoop {
			mc.Workload.ThinkTime = 0
			mc.StartSpread = sim.Millisecond
		}
		mc.Seed = cell.Seed
		mc.Faults = plan
		// Cells run sequentially (Partitions stays 0): results do not depend
		// on how a cluster is executed (DESIGN.md §5.9), and the campaign
		// worker pool is the parallelism — N sequential cells scale better
		// than N clusters fighting over cores.
		mc.OnCluster = func(c *core.Cluster) { observe(c) }
		res, err := core.RunMemcached(mc)
		return res, incast.Result{}, err
	}

	ic := core.DefaultIncast(cell.Shape.ServersPerRack - 1)
	ic.Switch, ic.CPU = cmp.Or(tor, ic.Switch), cmp.Or(clock, ic.CPU)
	ic.Profile, ic.Epoll, ic.Iterations, ic.Seed, ic.Faults = prof, w.Epoll, w.Requests, cell.Seed, plan
	var cluster *core.Cluster
	ic.OnCluster = func(c *core.Cluster) {
		cluster = c
		// A collapsed incast run lasts up to minutes of simulated time, over
		// which 1 ms gauge ticks make a manifest of hundreds of MB: an incast
		// cell samples its gauges once, at the start.
		observe(c).Registry.Stop()
	}
	r, err := core.RunIncast(ic)
	if err != nil {
		return nil, r, err
	}
	n := uint64(len(r.IterTimes))
	res := &core.MemcachedResult{
		Overall: metrics.NewHistogram(), Samples: n, Attempted: n, Completed: n,
		Clients: 1, ClientsDone: 1, Servers: ic.Senders, Elapsed: r.Elapsed, Retried: r.Retransmits,
		SwitchDrops: cluster.SwitchDrops(), FaultDrops: cluster.FaultDrops(), FaultEdges: cluster.FaultEdges(),
	}
	for _, d := range r.IterTimes {
		res.Overall.Record(d)
	}
	return res, r, nil
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
	w := cell.Workload
	setNonZero(m, "version", w.Version)
	setNonZero(m, "churn_every", w.ChurnEvery)
	setNonZero(m, "extra_switch_ns", w.ExtraSwitchNs)
	setNonZero(m, "app", w.App)
	setNonZero(m, "system", w.System)
	setNonZero(m, "cpu_ghz", w.CPUGHz)
	setNonZero(m, "epoll", w.Epoll)
	setNonZero(m, "closed_loop", w.ClosedLoop)
	switch {
	case cell.Baseline():
	case spec.Faults.Plan != "":
		m["fault_plan"] = spec.Faults.Plan
	default:
		m["fault_events"] = spec.Faults.Events
		m["fault_start_ms"] = spec.Faults.StartMs
		m["fault_horizon_ms"] = spec.Faults.HorizonMs
		m["fault_mean_dur_ms"] = spec.Faults.MeanDurMs
	}
	return m
}

func setNonZero[T comparable](m map[string]any, key string, v T) {
	if v != *new(T) {
		m[key] = v
	}
}

// RunCell executes one cell from its seed: a full cluster run with the
// observability layer attached as ocfg says (a campaign runs its cells with
// TraceEvents: -1, no trace), returning the model result and the cell's
// canonical manifest bytes. The trace never reaches the manifest, so calling
// RunCell twice with the same spec and cell yields byte-identical
// ManifestJSON, traced or not — the replay contract TestCellReplay and
// TestReplayTrace assert.
func RunCell(spec *Spec, cell Cell, ocfg core.ObserveConfig) (*CellResult, error) {
	plan, err := CellPlan(spec, cell)
	if err != nil {
		return nil, fmt.Errorf("campaign: cell %s: %w", cell.Name, err)
	}
	var o *core.Observation
	res, app, err := runApp(cell, plan, func(c *core.Cluster) *core.Observation {
		o = core.Observe(c, ocfg)
		return o
	})
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
		Incast:       app,
		Plan:         plan,
		Manifest:     manifest,
		Trace:        o.Trace,
		ManifestJSON: b,
		ManifestHash: obs.HashBytes(b),
	}, nil
}

// ReplayCell re-runs one cell of the spec by name, overriding the cell seed
// with a manifest-recorded one. seed 0 keeps the spec-derived seed; a
// non-zero seed must match it (a mismatch means the manifest belongs to a
// different spec revision, which can never replay byte-identically). ocfg
// is RunCell's.
func ReplayCell(spec *Spec, name string, seed uint64, ocfg core.ObserveConfig) (*CellResult, error) {
	cell, err := spec.CellByName(name)
	if err != nil {
		return nil, err
	}
	if seed != 0 && seed != cell.Seed {
		return nil, fmt.Errorf("campaign: cell %s derives seed %d, manifest records %d: spec drifted from the recorded run",
			name, cell.Seed, seed)
	}
	return RunCell(spec, cell, ocfg)
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
				results[i], errs[i] = RunCell(spec, cells[i], core.ObserveConfig{TraceEvents: -1})
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
