package campaign

import (
	"strings"
	"testing"

	"diablo/internal/obs"
)

// runTiny caches one tiny-spec campaign across the diff/validate tests.
var tinyReport *Report

func tinyRun(t *testing.T) *Report {
	t.Helper()
	if tinyReport == nil {
		rep, err := runReport(tinySpec(), RunConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		tinyReport = rep
	}
	return tinyReport
}

func reencode(t *testing.T, rep *Report) *Report {
	t.Helper()
	b, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeReport(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDiffIdentical(t *testing.T) {
	rep := tinyRun(t)
	d := DiffReports(rep, reencode(t, rep), 0)
	if !d.Identical || d.HasRegressions() {
		t.Fatalf("self-diff not identical: %+v", d)
	}
	var b strings.Builder
	if err := d.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "identical") {
		t.Errorf("identical diff renders as %q", b.String())
	}
}

func TestDiffRegression(t *testing.T) {
	rep := tinyRun(t)
	mutated := reencode(t, rep)
	victim := &mutated.Cells[2]
	victim.P999Us *= 3
	victim.ManifestHash = "fnv64a:0000000000000000"
	mutated.AggregateHash = "fnv64a:ffffffffffffffff"

	d := DiffReports(rep, mutated, 0.25)
	if d.Identical {
		t.Fatal("mutated diff claimed identical")
	}
	if !d.HasRegressions() || len(d.Regressions) != 1 || d.Regressions[0] != victim.Name {
		t.Fatalf("regressions = %v, want just %s", d.Regressions, victim.Name)
	}
	if d.Matched != len(rep.Cells) {
		t.Errorf("matched %d cells, want %d", d.Matched, len(rep.Cells))
	}
	var hashChanged int
	for _, delta := range d.Deltas {
		if delta.HashChanged {
			hashChanged++
			if delta.Name != victim.Name {
				t.Errorf("unexpected hash change on %s", delta.Name)
			}
		}
	}
	if hashChanged != 1 {
		t.Errorf("%d cells report hash changes, want 1", hashChanged)
	}
	var b strings.Builder
	if err := d.RenderText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "REGRESSED") {
		t.Errorf("rendering lacks the REGRESSED verdict:\n%s", b.String())
	}
}

func TestDiffAddedRemoved(t *testing.T) {
	rep := tinyRun(t)
	mutated := reencode(t, rep)
	renamed := &mutated.Cells[0]
	oldName := renamed.Name
	renamed.Name = "9x9x9/linux-3.5.7/udp/baseline"
	d := DiffReports(rep, mutated, 0)
	if len(d.Added) != 1 || d.Added[0] != renamed.Name {
		t.Errorf("added = %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != oldName {
		t.Errorf("removed = %v", d.Removed)
	}
	if d.Matched != len(rep.Cells)-1 {
		t.Errorf("matched = %d", d.Matched)
	}
}

func TestValidateArtifactKinds(t *testing.T) {
	rep := tinyRun(t)
	repJSON, err := rep.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	cells, _ := tinySpec().Cells()
	cr, err := RunCell(tinySpec(), cells[0], untraced)
	if err != nil {
		t.Fatal(err)
	}
	specJSON := []byte(`{"schema":"` + SpecSchema + `","name":"t","topologies":[{"shape":"4x2x1"}],"profiles":["linux-3.5.7"],"workloads":[{"name":"u","proto":"udp","requests":2}],"faults":{"draws":0}}`)
	good := []struct {
		kind string
		data []byte
	}{
		{"campaign-report", repJSON},
		{"run-manifest", cr.ManifestJSON},
		{"campaign-spec", specJSON},
		{"chrome-trace", []byte(`{"traceEvents":[{"ph":"X","name":"e"}]}`)},
	}
	for _, g := range good {
		kind, err := ValidateArtifact(g.data)
		if err != nil {
			t.Errorf("%s: %v", g.kind, err)
		}
		if kind != g.kind {
			t.Errorf("kind = %s, want %s", kind, g.kind)
		}
	}

	bad := [][]byte{
		[]byte(`not json`),
		[]byte(`{"schema":"diablo/who-knows/v1"}`),
		[]byte(`{"no":"schema"}`),
		[]byte(`{"traceEvents":[{"name":"phaseless"}]}`),
	}
	for i, data := range bad {
		if _, err := ValidateArtifact(data); err == nil {
			t.Errorf("bad artifact %d validated", i)
		}
	}

	// A report whose aggregate hash no longer matches its cells must fail
	// even though it parses: validation recomputes the chain.
	corrupt := reencode(t, rep)
	corrupt.Cells[1].ManifestHash = "fnv64a:0000000000000000"
	corruptJSON, err := corrupt.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateArtifact(corruptJSON); err == nil {
		t.Error("hash-corrupted report validated")
	}
}

func TestAggregateHashMatchesManifests(t *testing.T) {
	rep := tinyRun(t)
	cells, _ := tinySpec().Cells()
	hashes := make([]string, 0, len(cells))
	for _, c := range cells {
		cr, err := RunCell(tinySpec(), c, untraced)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, c.Name+" "+cr.ManifestHash)
	}
	if got := obs.AggregateHash(hashes); got != rep.AggregateHash {
		t.Fatalf("independently recomputed aggregate hash %s != report's %s", got, rep.AggregateHash)
	}
}
