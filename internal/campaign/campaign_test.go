package campaign

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"diablo/internal/obs"
)

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
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("tiny spec rejected: %v", err)
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
	seeds := map[uint64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if names[c.Name] {
			t.Errorf("duplicate cell name %s", c.Name)
		}
		if seeds[c.Seed] {
			t.Errorf("duplicate cell seed %d (%s)", c.Seed, c.Name)
		}
		names[c.Name] = true
		seeds[c.Seed] = true
		base := cells[c.BaselineIndex]
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
	if _, err := Preset("weekly"); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestCampaignWorkerInvariance is the campaign-level determinism gate:
// the aggregate report must be byte-identical at campaign workers 1, 2 and
// NumCPU (whatever order the cells actually complete in).
func TestCampaignWorkerInvariance(t *testing.T) {
	spec := tinySpec()
	var golden []byte
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		rep, err := Run(spec, RunConfig{Workers: workers})
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
	first, err := RunCell(spec, faulted)
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
	replayed, err := ReplayCell(spec, cellName, m.Seed)
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
	if _, err := ReplayCell(spec, cells[0].Name, cells[0].Seed+1); err == nil {
		t.Fatal("replay accepted a seed the spec does not derive")
	}
	if _, err := ReplayCell(spec, "missing/cell", 0); err == nil {
		t.Fatal("replay accepted an unknown cell")
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
	rep, err := Run(tinySpec(), RunConfig{Workers: 2})
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
