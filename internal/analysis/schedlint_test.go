package analysis

import "testing"

func TestSchedlintFixture(t *testing.T) {
	RunFixture(t, Schedlint, "testdata/src/schedlint", "diablo/internal/nic/schedfixture")
}

// Engine construction, run control and partition wiring are the harness
// layer's job: under a core-classified import path schedlint stays silent.
func TestSchedlintSilentInHarnessPackages(t *testing.T) {
	RunFixture(t, Schedlint, "testdata/src/scope_harness", "diablo/internal/core/fixture")
}

// The partitioning machinery (ParallelEngine, Partition, NewParallelEngine)
// is banned by schedlint's type and constructor rules, which is what keeps
// cross-partition Send and SendEvent out of model code.
func TestCrosslintFixture(t *testing.T) {
	RunFixture(t, Schedlint, "testdata/src/crosslint", "diablo/internal/nic/crossfixture")
}

// The same partition wiring that fires in a model package is the harness
// layer's job: under a core import path none of it is reported.
func TestCrosslintSilentInHarnessPackages(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/crosslint", "diablo/internal/core/crossfixture")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(pkg, []*Analyzer{Schedlint})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none under a harness import path", findings)
	}
}
