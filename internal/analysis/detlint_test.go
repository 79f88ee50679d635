package analysis

import "testing"

func TestDetlintFixture(t *testing.T) {
	RunFixture(t, Detlint, "testdata/src/detlint", "diablo/internal/nic/detfixture")
}

// Fault-injection callbacks are model code: a wall-clock read or map-range
// scheduling inside an apply/clear closure must fire, while a plan whose
// loss decisions come from per-label sim.Rand streams stays silent. The
// import path places the fixture under the fault package's subtree.
func TestDetlintFaultCallbacks(t *testing.T) {
	RunFixture(t, Detlint, "testdata/src/detlint_fault", "diablo/internal/fault/detfixture")
}

// The same sins under a non-model import path produce no findings.
func TestDetlintSilentOutsideModelPackages(t *testing.T) {
	RunFixture(t, Detlint, "testdata/src/scope_nonmodel", "diablo/internal/metrics/fixture")
}

// sync.Pool in a model package fires wherever the type is named; the rest of
// package sync stays usable, and a //simlint:allow covers a deliberate use.
func TestPoollintFixture(t *testing.T) {
	RunFixture(t, Detlint, "testdata/src/poollint", "diablo/internal/kernel/poolfixture")
}
