package campaign

import (
	"bytes"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"diablo/internal/core"
	"diablo/internal/obs"
)

// untraced observes a cell as a campaign run does: stats, no trace.
var untraced = core.ObserveConfig{TraceEvents: -1}

// runReport runs every cell of spec and aggregates them, as cmd/campaign does.
func runReport(spec *Spec, rc RunConfig) (*Report, error) {
	results, err := RunCells(spec, rc)
	if err != nil {
		return nil, err
	}
	return BuildReport(spec, results)
}

// tinySpec is the smallest useful sweep: 1 shape × 2 profiles × 1 workload ×
// (baseline + 1 fault draw) = 4 cells, each an 8-node cluster.
func tinySpec() *Spec {
	return &Spec{
		Schema:     SpecSchema,
		Name:       "tiny",
		MasterSeed: 7,
		Topologies: []TopologyAxis{{Shape: "4x2x1", MemcachedServersPerRack: 1}},
		Profiles:   []string{"linux-2.6.39.3", "linux-3.5.7"},
		Workloads:  []WorkloadAxis{{Name: "udp", Proto: "udp", Requests: 5, Warmup: 1}},
		Faults:     FaultAxis{Draws: 1, Events: 2, StartMs: 1, HorizonMs: 20, MeanDurMs: 10},
	}
}

func TestSpecValidate(t *testing.T) {
	incast := func(s *Spec) { s.Workloads[0] = WorkloadAxis{Name: "in", App: "incast", Proto: "tcp", Requests: 2} }
	plan := func(s *Spec) { s.Faults = FaultAxis{Draws: 1, Plan: "tordegrade rack=0 at=1ms dur=5ms loss=0.5"} }
	bad := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"wrong schema", func(s *Spec) { s.Schema = "diablo/other/v9" }},
		{"no topologies", func(s *Spec) { s.Topologies = nil }},
		{"no profiles", func(s *Spec) { s.Profiles = nil }},
		{"no workloads", func(s *Spec) { s.Workloads = nil }},
		{"bad shape", func(s *Spec) { s.Topologies[0].Shape = "31-16-1" }},
		{"zero dimension", func(s *Spec) { s.Topologies[0].Shape = "0x2x1" }},
		{"servers eat the rack", func(s *Spec) { s.Topologies[0].MemcachedServersPerRack = 4 }},
		{"faults on single rack", func(s *Spec) { s.Topologies[0] = TopologyAxis{Shape: "4x1x1"} }},
		{"unknown profile", func(s *Spec) { s.Profiles[0] = "linux-9.9" }},
		{"unnamed workload", func(s *Spec) { s.Workloads[0].Name = "" }},
		{"dup workload", func(s *Spec) { s.Workloads = append(s.Workloads, s.Workloads[0]) }},
		{"bad proto", func(s *Spec) { s.Workloads[0].Proto = "sctp" }},
		{"zero requests", func(s *Spec) { s.Workloads[0].Requests = 0 }},
		{"warmup >= requests", func(s *Spec) { s.Workloads[0].Warmup = 5 }},
		{"negative clients", func(s *Spec) { s.Workloads[0].MaxClients = -1 }},
		{"unknown version", func(s *Spec) { s.Workloads[0].Version = "1.6.0" }},
		{"negative churn", func(s *Spec) { s.Workloads[0].ChurnEvery = -1 }},
		{"negative switch latency", func(s *Spec) { s.Workloads[0].ExtraSwitchNs = -50 }},
		{"duplicate seeds", func(s *Spec) { s.Seeds = []uint64{1, 2, 1} }},
		{"too many seeds", func(s *Spec) { s.Seeds = make([]uint64, maxCells/4+1) }},
		{"negative draws", func(s *Spec) { s.Faults.Draws = -1 }},
		{"too many cells", func(s *Spec) { s.Faults.Draws = maxCells }},
		{"draws overflow", func(s *Spec) { s.Faults.Draws = math.MaxInt }},
		{"draws without events", func(s *Spec) { s.Faults.Events = 0 }},
		{"draws without horizon", func(s *Spec) { s.Faults.HorizonMs = 0 }},
	}
	for _, tc := range bad {
		s := tinySpec()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken spec", tc.name)
		}
	}
	// These errors must name the field (and the value and limit, where the
	// spec cannot show them).
	named := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"max_clients above the shape", func(s *Spec) { s.Workloads[0].MaxClients = 100 }, "max_clients 100 exceeds the 6 client nodes"},
		{"fault onsets past the engine", func(s *Spec) { s.Faults.StartMs = 2e10 }, "start_ms + horizon_ms"},
		{"fault windows past the engine", func(s *Spec) { s.Faults.MeanDurMs = 1e9 }, "mean_dur_ms"},
		{"unknown app", func(s *Spec) { s.Workloads[0].App = "hadoop" }, "app"},
		{"unknown system", func(s *Spec) { s.Workloads[0].System = "fpga" }, "system"},
		{"cpu clock out of range", func(s *Spec) { s.Workloads[0].CPUGHz = -2 }, "cpu_ghz"},
		{"epoll on memcached", func(s *Spec) { s.Workloads[0].Epoll = true }, "epoll"},
		{"incast over udp", func(s *Spec) { incast(s); s.Workloads[0].Proto = "udp" }, "incast"},
		{"incast with a memcached knob", func(s *Spec) { incast(s); s.Workloads[0].Version = "1.4.15" }, "incast"},
		{"incast across racks", func(s *Spec) { incast(s); s.Faults.Draws = 0 }, "one-rack"},
		{"malformed plan", func(s *Spec) { plan(s); s.Faults.Plan = "tordegrade rack=0 at=soon" }, "faults.plan"},
		{"plan that schedules nothing", func(s *Spec) { plan(s); s.Faults.Plan = " ; " }, "faults.plan"},
		{"plan with two draws", func(s *Spec) { plan(s); s.Faults.Draws = 2 }, "draws must be 1"},
		{"plan with generator events", func(s *Spec) { plan(s); s.Faults.Events = 3 }, "events"},
		{"plan with a generator window", func(s *Spec) { plan(s); s.Faults.MeanDurMs = 5 }, "mean_dur_ms"},
	}
	for _, tc := range named {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted the broken spec")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to name %q", err, tc.want)
			}
		})
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("tiny spec rejected: %v", err)
	}
	// A plan may target a one-rack shape: the multi-rack check is for the
	// generator's rack-uplink faults.
	s := tinySpec()
	incast(s)
	s.Topologies[0] = TopologyAxis{Shape: "3x1x1"}
	s.Faults = FaultAxis{Draws: 1, Plan: "edgedegrade node=0 at=0 dur=1s loss=0.1 dir=down"}
	if err := s.Validate(); err != nil {
		t.Fatalf("plan on a one-rack incast shape rejected: %v", err)
	}
}

func TestCellEnumeration(t *testing.T) {
	s := tinySpec()
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	names := map[string]bool{}
	baselineSeeds := map[uint64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if names[c.Name] {
			t.Errorf("duplicate cell name %s", c.Name)
		}
		names[c.Name] = true
		// A faulted cell runs at its baseline's seed, so the fault plan is
		// all that tells them apart; baselines derive distinct seeds.
		if c.Baseline() {
			if baselineSeeds[c.Seed] {
				t.Errorf("duplicate baseline seed %d (%s)", c.Seed, c.Name)
			}
			baselineSeeds[c.Seed] = true
		}
		base := cells[c.BaselineIndex]
		if c.Seed != base.Seed {
			t.Errorf("cell %s runs at seed %d, its baseline %s at %d", c.Name, c.Seed, base.Name, base.Seed)
		}
		if !base.Baseline() {
			t.Errorf("cell %s points at non-baseline %s", c.Name, base.Name)
		}
		if c.Baseline() != (c.BaselineIndex == c.Index) {
			t.Errorf("cell %s: baseline self-reference broken", c.Name)
		}
	}
	// Enumeration order: profiles cycle within the single topology/workload.
	if want := "4x2x1/linux-2.6.39.3/udp/baseline"; cells[0].Name != want {
		t.Errorf("cells[0] = %s, want %s", cells[0].Name, want)
	}
	if want := "4x2x1/linux-3.5.7/udp/fault-01"; cells[3].Name != want {
		t.Errorf("cells[3] = %s, want %s", cells[3].Name, want)
	}
	// Same spec, same cells (incl. seeds).
	again, _ := s.Cells()
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("enumeration not stable at %d: %+v vs %+v", i, cells[i], again[i])
		}
	}
	if _, err := s.CellByName(cells[2].Name); err != nil {
		t.Errorf("CellByName(%s): %v", cells[2].Name, err)
	}
	if _, err := s.CellByName("no/such/cell"); err == nil {
		t.Error("CellByName accepted an unknown name")
	}
}

// TestSeedReplicates runs the tiny sweep at three seeds: three times the
// cells, each seed's faulted cell measured against that seed's baseline, the
// report identical at any worker count, and a replicate summary rendered.
func TestSeedReplicates(t *testing.T) {
	spec := tinySpec()
	spec.Seeds = []uint64{1, 2, 3}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	if want := "4x2x1/linux-2.6.39.3/udp/s2/fault-01"; cells[3].Name != want {
		t.Errorf("cells[3] = %s, want %s", cells[3].Name, want)
	}
	for _, c := range cells {
		if base := cells[c.BaselineIndex]; base.Seed != c.Seed || !base.Baseline() {
			t.Errorf("cell %s (seed %d) points at baseline %s (seed %d)", c.Name, c.Seed, base.Name, base.Seed)
		}
	}
	var golden []byte
	var rep *Report
	for _, workers := range []int{1, 3} {
		rep, err = runReport(spec, RunConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden != nil && !bytes.Equal(golden, b) {
			t.Fatalf("workers=%d: report bytes differ from workers=1", workers)
		}
		golden = b
	}
	var text strings.Builder
	if err := rep.RenderText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "replicates: median [min-max] over 3 seeds") {
		t.Errorf("rendering lacks the replicate summary:\n%s", text.String())
	}
	// One summary row per (profile, draw) point of the tiny sweep.
	rows := rep.replicateTable().Rows
	if len(rows) != 4 {
		t.Fatalf("replicate summary has %d rows, want 4", len(rows))
	}
	if got := strings.Join(rows[3][:4], " "); got != "4x2x1 linux-3.5.7 udp fault-01" {
		t.Errorf("last summary row is %q", got)
	}
}

// TestNeverFiringFaultInflatesNothing: a fault window that opens after the
// run has ended changes nothing, so with the faulted cell at its baseline's
// seed every inflation is exactly 1.
func TestNeverFiringFaultInflatesNothing(t *testing.T) {
	spec := tinySpec()
	spec.Profiles = spec.Profiles[:1]
	spec.Faults = FaultAxis{Draws: 1, Events: 1, StartMs: 60000, HorizonMs: 1, MeanDurMs: 1}
	rep, err := runReport(spec, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Cells[1].Degradation
	if d.FaultDrops != 0 || d.P50Inflation != 1 || d.P99Inflation != 1 || d.P999Inflation != 1 {
		t.Fatalf("never-firing fault: %+v, want no drops and every inflation exactly 1", d)
	}
}

// TestIncastCells: an incast cell reports one sample per iteration and its
// goodput, and the replicate summary of an incast sweep carries goodput.
func TestIncastCells(t *testing.T) {
	spec := &Spec{
		Name: "incast", Seeds: []uint64{1, 2},
		Topologies: []TopologyAxis{{Shape: "3x1x1"}},
		Profiles:   []string{"linux-2.6.39.3"},
		Workloads:  []WorkloadAxis{{Name: "epoll", App: "incast", Proto: "tcp", Requests: 2, Epoll: true}},
	}
	rep, err := runReport(spec, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Samples != 2 || c.Clients != 1 || c.GoodputMbps <= 0 {
			t.Errorf("cell %s: %d samples, goodput %v Mbps; want 2 iterations with goodput", c.Name, c.Samples, c.GoodputMbps)
		}
	}
	if cols := rep.replicateTable().Columns; cols[len(cols)-1] != "goodput" {
		t.Errorf("replicate summary columns %v lack goodput", cols)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range Presets() {
		s, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
	smoke, _ := Preset("smoke")
	cells, _ := smoke.Cells()
	if len(cells) != 8 {
		t.Errorf("smoke preset has %d cells, want 8", len(cells))
	}
	nightly, _ := Preset("nightly")
	ncells, _ := nightly.Cells()
	if len(ncells) != 240 {
		t.Errorf("nightly preset has %d cells, want 240", len(ncells))
	}
	// The figure presets fix their seeds, so every draw runs at a seed the
	// figure names; the incast ones run a cell per sender count and system,
	// the fault ones a baseline and one draw under their plan.
	for _, c := range []struct {
		name  string
		cells int
	}{{"fig6a", 13 * 3}, {"fig6b", 13 * 4}, {"fig8", 7 * 2}, {"fig9", 2 * 2}, {"faultmc", 2}, {"faultincast", 2}} {
		s, _ := Preset(c.name)
		cells, _ := s.Cells()
		if len(cells) != c.cells || !slices.Equal(s.Seeds, []uint64{1}) {
			t.Errorf("preset %s: %d cells at seeds %v, want %d at [1]", c.name, len(cells), s.Seeds, c.cells)
		}
	}
	// A planned draw seeds its loss streams with the cell seed, and its
	// manifest records the plan in place of the generator's knobs.
	for _, name := range []string{"faultmc", "faultincast"} {
		s, _ := Preset(name)
		cells, _ := s.Cells()
		p, err := CellPlan(s, cells[1])
		if err != nil || p.Seed != cells[1].Seed || len(p.Actions) != 1 {
			t.Errorf("preset %s: draw 1 plan %+v (err %v), want one action seeded %d", name, p, err, cells[1].Seed)
		}
		m := configMap(s, cells[1])
		if _, gen := m["fault_events"]; m["fault_plan"] != s.Faults.Plan || gen {
			t.Errorf("preset %s: draw 1 config %v, want fault_plan and no generator keys", name, m)
		}
		if _, ok := configMap(s, cells[0])["fault_plan"]; ok {
			t.Errorf("preset %s: baseline config records a fault plan", name)
		}
	}
	if _, err := Preset("weekly"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestCampaignWorkerInvariance is the campaign-level determinism gate:
// the aggregate report must be byte-identical at campaign workers 1, 2 and
// NumCPU (whatever order the cells actually complete in). A negative worker
// count is an error naming the field, never a silent GOMAXPROCS.
func TestCampaignWorkerInvariance(t *testing.T) {
	spec := tinySpec()
	var golden []byte
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		rep, err := runReport(spec, RunConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = b
			continue
		}
		if !bytes.Equal(golden, b) {
			t.Fatalf("workers=%d: report bytes differ from workers=1 (%d vs %d bytes)", workers, len(golden), len(b))
		}
	}
	if _, err := RunCells(spec, RunConfig{Workers: -2}); err == nil || !strings.Contains(err.Error(), "RunConfig.Workers") {
		t.Fatalf("workers=-2: err = %v, want an error naming RunConfig.Workers", err)
	}
}

// TestCellReplay asserts the replay contract: re-running one cell from the
// seed recorded in its manifest reproduces the manifest byte-for-byte.
func TestCellReplay(t *testing.T) {
	spec := tinySpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	faulted := cells[1] // first faulted cell
	if faulted.Baseline() {
		t.Fatalf("cells[1] unexpectedly a baseline: %s", faulted.Name)
	}
	first, err := RunCell(spec, faulted, untraced)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the encoded manifest, as a reader of the artifact
	// would: the recorded seed and cell name are all a replay needs.
	m, err := obs.DecodeManifest(first.ManifestJSON)
	if err != nil {
		t.Fatal(err)
	}
	cellName, ok := m.Config["cell"].(string)
	if !ok {
		t.Fatalf("manifest config lacks the cell name: %v", m.Config)
	}
	replayed, err := ReplayCell(spec, cellName, m.Seed, untraced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.ManifestJSON, replayed.ManifestJSON) {
		t.Fatalf("replayed manifest differs (%d vs %d bytes)", len(first.ManifestJSON), len(replayed.ManifestJSON))
	}
	if first.ManifestHash != replayed.ManifestHash {
		t.Fatalf("replayed manifest hash %s != %s", replayed.ManifestHash, first.ManifestHash)
	}
}

func TestReplaySeedMismatch(t *testing.T) {
	spec := tinySpec()
	cells, _ := spec.Cells()
	if _, err := ReplayCell(spec, cells[0].Name, cells[0].Seed+1, untraced); err == nil {
		t.Fatal("replay accepted a seed the spec does not derive")
	}
	if _, err := ReplayCell(spec, "missing/cell", 0, untraced); err == nil {
		t.Fatal("replay accepted an unknown cell")
	}
}

// TestReplayTrace: a cell replayed with its trace on writes the same
// manifest as with it off, and carries a trace only when it is on — for a
// memcached cell and for a faulted incast cell.
func TestReplayTrace(t *testing.T) {
	incast := &Spec{
		Schema: SpecSchema, Name: "incast-trace", Seeds: []uint64{1},
		Topologies: []TopologyAxis{{Shape: "3x1x1"}},
		Profiles:   []string{"2.6.39"},
		Workloads:  []WorkloadAxis{{Name: "epoll", App: "incast", Proto: "tcp", Requests: 2, Epoll: true}},
		Faults:     FaultAxis{Draws: 1, Plan: "edgedegrade node=0 at=0 dur=600s loss=0.1 dir=down"},
	}
	for _, tc := range []struct {
		spec *Spec
		cell string
	}{
		{tinySpec(), "4x2x1/linux-2.6.39.3/udp/fault-01"},
		{incast, "3x1x1/2.6.39/epoll/s1/fault-01"},
	} {
		off, err := ReplayCell(tc.spec, tc.cell, 0, untraced)
		if err != nil {
			t.Fatal(err)
		}
		on, err := ReplayCell(tc.spec, tc.cell, 0, core.ObserveConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(off.ManifestJSON, on.ManifestJSON) {
			t.Errorf("%s: manifest differs with the trace on (%d vs %d bytes)", tc.cell, len(on.ManifestJSON), len(off.ManifestJSON))
		}
		if off.Trace != nil {
			t.Errorf("%s: untraced replay carries a trace", tc.cell)
		}
		if on.Trace == nil || on.Trace.Len() == 0 {
			t.Errorf("%s: traced replay carries no trace events", tc.cell)
		}
	}

	// A buffer far too small for the run still keeps every fault edge.
	full, err := ReplayCell(incast, "3x1x1/2.6.39/epoll/s1/fault-01", 0, core.ObserveConfig{TraceEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	if full.Trace.Dropped() == 0 {
		t.Fatal("a 16-event trace of the incast cell dropped nothing; the case no longer overflows")
	}
	globals := 0
	for _, ev := range full.Trace.Events() {
		if ev.Scope == "g" {
			globals++
		}
	}
	if edges := len(full.Manifest.FaultEdges); edges == 0 || globals != edges {
		t.Errorf("full trace holds %d global instants for %d fault edges", globals, edges)
	}
}

// TestRunSpecs: every one-cell run spec under testdata/runs parses, and
// every spec and cell the docs, CI and the identity script quote exists.
func TestRunSpecs(t *testing.T) {
	specs, err := filepath.Glob("../../testdata/runs/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no run specs found: %v", err)
	}
	parsed := map[string]*Spec{}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if parsed[filepath.Base(path)], err = ParseSpec(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	quote := regexp.MustCompile(`testdata/runs/([\w.-]+\.json)[\s\\"]+-cell[\s\\]+([\w./-]+)`)
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../.github/workflows/ci.yml", "../../scripts/identity.sh"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		quotes := quote.FindAllStringSubmatch(string(data), -1)
		if len(quotes) == 0 {
			t.Errorf("%s quotes no run spec cell", doc)
		}
		for _, q := range quotes {
			spec := parsed[q[1]]
			if spec == nil {
				t.Errorf("%s quotes testdata/runs/%s, which does not parse or does not exist", doc, q[1])
				continue
			}
			if _, err := spec.CellByName(q[2]); err != nil {
				t.Errorf("%s: %v", doc, err)
			}
		}
	}
}

// TestDocsNamePaths: every cmd/<x> and examples/<x> the docs name exists,
// whether in a code span, a `go run ./…` line or README's layout block.
func TestDocsNamePaths(t *testing.T) {
	span := regexp.MustCompile("`[^`\n]*`")
	path := regexp.MustCompile(`\b(?:cmd|examples)/[\w-]+`)
	goRun := regexp.MustCompile(`go run \./((?:cmd|examples)/[\w-]+)`)
	layout := regexp.MustCompile(`(?m)^ (cmd|examples)/ +(.+)$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		named := map[string]bool{}
		for _, s := range span.FindAllString(text, -1) {
			for _, p := range path.FindAllString(s, -1) {
				named[p] = true
			}
		}
		for _, m := range goRun.FindAllStringSubmatch(text, -1) {
			named[m[1]] = true
		}
		for _, m := range layout.FindAllStringSubmatch(text, -1) {
			for _, name := range strings.Split(m[2], ",") {
				named[m[1]+"/"+strings.TrimSpace(name)] = true
			}
		}
		if len(named) == 0 {
			t.Errorf("%s names no cmd/ or examples/ path", doc)
		}
		for _, p := range slices.Sorted(maps.Keys(named)) {
			if fi, err := os.Stat("../../" + p); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}
}

func TestCellPlanDeterministic(t *testing.T) {
	spec := tinySpec()
	cells, _ := spec.Cells()
	var faulted *Cell
	for i := range cells {
		if !cells[i].Baseline() {
			faulted = &cells[i]
			break
		}
	}
	p1, err := CellPlan(spec, *faulted)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := CellPlan(spec, *faulted)
	if len(p1.Actions) == 0 {
		t.Fatal("faulted cell drew an empty plan")
	}
	if len(p1.Actions) != len(p2.Actions) {
		t.Fatalf("plan redraw differs: %d vs %d actions", len(p1.Actions), len(p2.Actions))
	}
	if base, err := CellPlan(spec, cells[0]); err != nil || base != nil {
		t.Fatalf("baseline cell drew a plan: %v, %v", base, err)
	}
}

func TestRenderTextDeterministic(t *testing.T) {
	rep, err := runReport(tinySpec(), RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := rep.RenderText(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("RenderText is not deterministic")
	}
	for _, want := range []string{"campaign tiny", "degradation vs unfaulted baseline", "p99.9 latency", "shade ramp"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("rendering lacks %q", want)
		}
	}
}
