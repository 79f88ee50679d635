package analysis

import (
	"strings"
	"testing"
)

func TestStatelintFixture(t *testing.T) {
	RunFixture(t, Statelint, "testdata/src/statelint", "diablo/internal/nic/statefixture")
}

func TestStatelintSilentOutsideModelPackages(t *testing.T) {
	RunFixture(t, Statelint, "testdata/src/scope_nonmodel", "diablo/internal/metrics/fixture")
}

func TestStatelintDanglingTransient(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/statelint_dangling", "diablo/internal/nic/danglefixture")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(pkg, []*Analyzer{Statelint})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "dangling //diablo:transient") {
		t.Fatalf("findings = %v, want exactly the dangling-annotation finding", findings)
	}
}

func TestStateReport(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/statelint", "diablo/internal/nic/statefixture")
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildStateReport(pkg)

	if rep.Ready {
		t.Error("report Ready with unannotated blockers present")
	}
	wantRoots := []string{"Comp", "Frame", "Covered"}
	if len(rep.Roots) != len(wantRoots) {
		t.Fatalf("roots = %v, want %v", rep.Roots, wantRoots)
	}
	for i, r := range wantRoots {
		if rep.Roots[i] != r {
			t.Errorf("roots[%d] = %s, want %s", i, rep.Roots[i], r)
		}
	}
	if rep.Blockers == 0 || rep.Transient == 0 || rep.Total < rep.Blockers+rep.Transient {
		t.Errorf("counters look wrong: blockers=%d transient=%d total=%d",
			rep.Blockers, rep.Transient, rep.Total)
	}

	classOf := func(structName, field string) StateClass {
		for _, f := range rep.Fields {
			if f.Struct == structName && f.Field == field {
				return f.Class
			}
		}
		t.Fatalf("field %s.%s not in report", structName, field)
		return ""
	}
	for _, c := range []struct {
		s, f string
		want StateClass
	}{
		{"Comp", "count", StateOK},
		{"Comp", "sched", StateTransient},
		{"Comp", "probe", StateTransient},
		{"Comp", "hook", StateBlocker},
		{"nested", "fire", StateBlocker},
		{"Frame", "payload", StateBlocker},
		{"Covered", "scratch", StateBlocker}, // suppressed from gating, still a blocker on the worklist
	} {
		if got := classOf(c.s, c.f); got != c.want {
			t.Errorf("%s.%s classified %s, want %s", c.s, c.f, got, c.want)
		}
	}

	// Readiness is a claim about audited state: a model package with no
	// checkpoint roots has audited nothing, so it is not ready either.
	rootless, err := loader.LoadDir("testdata/src/scope_nonmodel", "diablo/internal/apps/rootless")
	if err != nil {
		t.Fatal(err)
	}
	if rep := BuildStateReport(rootless); len(rep.Roots) != 0 || rep.Blockers != 0 || rep.Ready {
		t.Errorf("rootless package: roots %v, %d blockers, ready %v; want none, 0, false",
			rep.Roots, rep.Blockers, rep.Ready)
	}
}

// Owned-struct discovery: exactly the structs holding a sim.Scheduler field
// are owned (Comp, Covered). Frame is a checkpoint root only by its
// //diablo:checkpoint-root mark, and nested and orphan hold no scheduler.
func TestCallGraphOwnedStructs(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/statelint", "diablo/internal/nic/statefixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, named := range ownedStructs(pkg) {
		got = append(got, named.Obj().Name())
	}
	if strings.Join(got, ",") != "Comp,Covered" {
		t.Fatalf("ownedStructs = %v, want [Comp Covered]", got)
	}
}
