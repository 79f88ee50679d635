// Package analysis checks the determinism rules that no run-time test
// catches reliably. A `go` statement in model code races the event loop, and
// a map range that schedules, makes a simulated syscall or appends to an
// outer slice follows Go's randomized iteration order. Either one breaks a
// replay only when the host's timing or the map's seed happens to differ, so
// the goldens and replay tests see it at random. A model component that runs,
// halts or makes an engine takes over what only the engine's owner may do,
// and nothing fails until a run stops at the wrong instant. Every other rule
// of the determinism contract (DESIGN.md §5.5) is enforced by a test that
// fails on its violation. The rules are checked over source with go/parser
// and go/types; imports come from the export data `go list -export` writes to
// the build cache.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// A rule is one hazard: fires returns the nodes under n that break it.
// Packages in exempt (and their subtrees) may break it on purpose, and so may
// test files if tests is false.
type rule struct {
	name   string
	exempt []string
	tests  bool
	fires  func(info *types.Info, n ast.Node) []ast.Node
}

var rules = []rule{
	// The partitioned engine's per-quantum workers are the one sanctioned
	// use: static partition assignment, joined at every barrier.
	{"go statement", []string{"diablo/internal/sim"}, true, goStatement},
	{"map range", nil, true, mapRange},
	// An engine is run by whoever made it: the engine package and the
	// cluster that wires the model, or a test driving components by hand.
	{"run control", []string{"diablo/internal/sim", "diablo/internal/core"}, false, runControl},
}

// harness lists the packages under internal/ that hold no model code: they
// sweep, measure or report runs, so host concurrency and map order are
// theirs to use. Everything else under internal/ is model code, and so is
// any package added there later.
var harness = []string{"analysis", "campaign", "fpga", "metrics", "survey"}

func isModel(path string) bool {
	rest, ok := strings.CutPrefix(path, "diablo/internal/")
	return ok && !within(rest, harness...)
}

// within reports whether path is one of the prefixes or lies below one.
func within(path string, prefixes ...string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func goStatement(_ *types.Info, n ast.Node) []ast.Node {
	if g, ok := n.(*ast.GoStmt); ok {
		return []ast.Node{g}
	}
	return nil
}

// mapRange flags the calls inside a range over a map that make the
// iteration order observable: scheduling an event (the queue breaks ties by
// insertion order), any call on or with a *kernel.Thread (each one advances
// the thread's simulated time) and an append to a slice declared outside the
// loop. Pure per-entry work — sums, deletes, lookups — is fine.
func mapRange(info *types.Info, n ast.Node) []ast.Node {
	rng, ok := n.(*ast.RangeStmt)
	if !ok {
		return nil
	}
	if _, ok := info.TypeOf(rng.X).Underlying().(*types.Map); !ok {
		return nil
	}
	var bad []ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok &&
			(schedules(info, call) || usesThread(info, call) || appendsOutside(info, call, rng)) {
			bad = append(bad, call)
		}
		return true
	})
	return bad
}

func schedules(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "diablo/internal/sim" {
		return false
	}
	switch fn.Name() {
	case "At", "After", "AtEvent", "AfterEvent", "Send", "SendEvent":
		return fn.Type().(*types.Signature).Recv() != nil
	}
	return false
}

func usesThread(info *types.Info, call *ast.CallExpr) bool {
	args := call.Args
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		args = append([]ast.Expr{sel.X}, args...)
	}
	for _, a := range args {
		ptr, ok := info.TypeOf(a).(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "diablo/internal/kernel" && named.Obj().Name() == "Thread" {
			return true
		}
	}
	return false
}

// runControl flags a reference to what only an engine's owner may do: a
// run-control method of a sim type (Run, RunUntil, Step, Halt), called or
// passed as a callback, and the engine constructors.
func runControl(info *types.Info, n ast.Node) []ast.Node {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "diablo/internal/sim" {
		return nil
	}
	method := fn.Type().(*types.Signature).Recv() != nil
	switch fn.Name() {
	case "Run", "RunUntil", "Step", "Halt":
		if method {
			return []ast.Node{sel}
		}
	case "NewEngine", "NewParallelEngine":
		return []ast.Node{sel}
	}
	return nil
}

func appendsOutside(info *types.Info, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if _, ok := info.Uses[fn].(*types.Builtin); !ok || fn.Name != "append" {
		return false
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[target]
	return obj != nil && obj.Pos() < rng.Pos()
}

type finding struct {
	pos  token.Position
	rule string
}

func (f finding) String() string { return fmt.Sprintf("%s: %s", f.pos, f.rule) }

// findings applies every rule that covers the package at path to its files.
// An external test package (path_test) has its package's rules.
func findings(fset *token.FileSet, path string, files []*ast.File, info *types.Info) []finding {
	pkg := strings.TrimSuffix(path, "_test")
	if !isModel(pkg) {
		return nil
	}
	var out []finding
	for _, r := range rules {
		if within(pkg, r.exempt...) {
			continue
		}
		for _, f := range files {
			if !r.tests && strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				for _, bad := range r.fires(info, n) {
					out = append(out, finding{fset.Position(bad.Pos()), r.name})
				}
				return true
			})
		}
	}
	return out
}

// listed is the part of `go list -json` output the checks use.
type listed struct {
	ImportPath, Dir, ForTest, Export string
	GoFiles                          []string
	ImportMap                        map[string]string
}

// module lists every package of the module with its test variants and their
// dependencies, compiling export data for all of them on the way.
var module = sync.OnceValues(func() ([]listed, error) {
	out, err := exec.Command("go", "list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,ForTest,Export,GoFiles,ImportMap", "diablo/internal/...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listed
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
})

// typeCheck parses and type-checks one package. Its imports resolve through
// importMap (a test build's own variants of its dependencies) to export data.
// A nil src reads each named file; otherwise src is the one file's text.
func typeCheck(t *testing.T, fset *token.FileSet, path string, names []string, src any, importMap map[string]string) ([]*ast.File, *types.Info) {
	t.Helper()
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	export := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if v, ok := importMap[path]; ok {
			path = v
		}
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	if _, err := (&types.Config{Importer: imp}).Check(path, fset, files, info); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return files, info
}

// A ruleCase is one inline source: the rule names it must fire, in rule and
// source order, when type-checked as package path. The source is a test file
// when the path is an external test package's.
type ruleCase struct {
	name, path, src string
	want            []string
}

const (
	modelPkg   = "diablo/internal/nic/fixture"
	enginePkg  = "diablo/internal/sim/fixture"
	harnessPkg = "diablo/internal/campaign/fixture"
)

func checkCases(t *testing.T, cases []ruleCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := "package fixture\n\nimport (\n\t\"diablo/internal/kernel\"\n\t\"diablo/internal/sim\"\n)\n\n" +
				"var _ = sim.Nanosecond\n\nfunc use(*kernel.Thread) {}\n\n" + c.src + "\n"
			file := "fixture.go"
			if strings.HasSuffix(c.path, "_test") {
				file = "fixture_test.go"
			}
			fset := token.NewFileSet()
			files, info := typeCheck(t, fset, c.path, []string{file}, src, nil)
			found := findings(fset, c.path, files, info)
			var got []string
			for _, f := range found {
				got = append(got, f.rule)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("findings %v, want %q", found, c.want)
			}
		})
	}
}

// Both rules fire in model code and its tests; order-insensitive map work
// and the engine's own workers stay silent.
func TestDetlintFixture(t *testing.T) {
	checkCases(t, []ruleCase{
		{"go statement in model code", modelPkg, `func f() { go func() {}() }`, []string{"go statement"}},
		{"go statement in a model test", modelPkg + "_test", `func f() { go func() {}() }`, []string{"go statement"}},
		{"go statement in the engine", enginePkg, `func f() { go func() {}() }`, nil},
		{"map range schedules", modelPkg, `func f(s sim.Scheduler, m map[int]sim.Time) {
			for _, at := range m { s.At(at, func() {}) }
		}`, []string{"map range"}},
		{"map range schedules a typed event", modelPkg, `func f(s sim.Scheduler, m map[int]sim.Event) {
			for _, ev := range m { s.AfterEvent(sim.Nanosecond, ev) }
		}`, []string{"map range"}},
		{"map range makes syscalls", modelPkg, `func f(t *kernel.Thread, m map[int]sim.Duration) {
			for _, d := range m { t.Sleep(d) }
			for range m { use(t) }
		}`, []string{"map range", "map range"}},
		{"map range appends to an outer slice", modelPkg, `func f(m map[int]bool) (keys []int) {
			for k := range m { keys = append(keys, k) }
			return keys
		}`, []string{"map range"}},
		{"map range aggregates", modelPkg, `func f(s sim.Scheduler, m map[int]sim.Duration, sorted []int) sim.Duration {
			for _, k := range sorted { s.After(m[k], func() {}) }
			var sum sim.Duration
			for k, d := range m {
				sum += d
				_ = append([]int(nil), k)
				delete(m, k)
			}
			return sum
		}`, nil},
	})
}

// Model code neither makes an engine nor runs, steps or halts one, whether it
// calls the method or passes it on as a callback; the engine, the cluster
// that wires the model, model tests and the harness may.
func TestDetlintRunControl(t *testing.T) {
	const src = `func f(s sim.Scheduler) {
		e := sim.NewEngine()
		e.RunUntil(sim.Never)
		s.At(0, e.Halt)
		pe := sim.NewParallelEngine(2, sim.Nanosecond)
		pe.Partition(0).At(0, pe.Halt)
		for e.Step() {
		}
		e.Run()
	}`
	fires := []string{"run control", "run control", "run control", "run control", "run control", "run control", "run control"}
	checkCases(t, []ruleCase{
		{"run control in model code", modelPkg, src, fires},
		{"run control in a model test", modelPkg + "_test", src, nil},
		{"run control in the engine", enginePkg, src, nil},
		{"run control in the cluster", "diablo/internal/core/fixture", src, nil},
		{"run control in the harness", harnessPkg, src, nil},
		{"scheduling is not run control", modelPkg, `func f(e *sim.Engine, pe *sim.ParallelEngine) {
			e.At(e.Now(), func() {})
			pe.Partition(0).Engine().AfterEvent(sim.Nanosecond, sim.Event{})
		}`, nil},
	})
}

// Fault-injection callbacks are model code: map-range scheduling inside an
// apply closure fires. The import path places the fixture under the fault
// package's subtree.
func TestDetlintFaultCallbacks(t *testing.T) {
	checkCases(t, []ruleCase{
		{"map range schedules inside a callback", "diablo/internal/fault/fixture", `func f(s sim.Scheduler, m map[string]sim.Time) {
			s.At(0, func() {
				for _, at := range m { s.At(at, func() {}) }
			})
		}`, []string{"map range"}},
		{"sorted keys schedule inside a callback", "diablo/internal/fault/fixture", `func f(s sim.Scheduler, m map[string]sim.Time, keys []string) {
			s.At(0, func() {
				for _, k := range keys { s.At(m[k], func() {}) }
			})
		}`, nil},
	})
}

// The same sources under a non-model import path produce no findings.
func TestDetlintSilentOutsideModelPackages(t *testing.T) {
	checkCases(t, []ruleCase{
		{"go statement in the harness", harnessPkg, `func f() { go func() {}() }`, nil},
		{"go statement outside internal", "diablo/cmd/fixture", `func f() { go func() {}() }`, nil},
		{"map range in the harness", "diablo/internal/metrics/fixture", `func f(m map[int]bool) (keys []int) {
			for k := range m { keys = append(keys, k) }
			return keys
		}`, nil},
	})
}

// Every package under internal/ outside the harness list is model code, and
// a prefix covers its subtree but not a package that merely shares its
// leading letters.
func TestPackageClassification(t *testing.T) {
	cases := []struct {
		path               string
		model, goOK, runOK bool // exempt from the go-statement, run-control rule
	}{
		{"diablo/internal/sim", true, true, true},
		{"diablo/internal/sim/sub", true, true, true},
		{"diablo/internal/simulator", true, false, false},
		{"diablo/internal/core", true, false, true},
		{"diablo/internal/corex", true, false, false},
		{"diablo/internal/nic", true, false, false},
		{"diablo/internal/kernel", true, false, false},
		{"diablo/internal/apps/memcache", true, false, false},
		{"diablo/internal/metrics", false, false, false},
		{"diablo/internal/survey", false, false, false},
		{"diablo/internal/campaign/sub", false, false, false},
		{"diablo/internal/metricsx", true, false, false},
		{"diablo/cmd/diablo", false, false, false},
		{"diablo/examples/quickstart", false, false, false},
		{"diablo", false, false, false},
	}
	exempt := func(name, path string) bool {
		return within(path, rules[slices.IndexFunc(rules, func(r rule) bool { return r.name == name })].exempt...)
	}
	for _, c := range cases {
		if got := isModel(c.path); got != c.model {
			t.Errorf("isModel(%q) = %v, want %v", c.path, got, c.model)
		}
		if got := exempt("go statement", c.path); got != c.goOK {
			t.Errorf("go-statement exemption of %q = %v, want %v", c.path, got, c.goOK)
		}
		if got := exempt("run control", c.path); got != c.runOK {
			t.Errorf("run-control exemption of %q = %v, want %v", c.path, got, c.runOK)
		}
	}
}

// The whole tree, test files included, breaks no rule.
func TestRepoIsLintClean(t *testing.T) {
	pkgs, err := module()
	if err != nil {
		t.Fatal(err)
	}
	// A package with test files is checked in its test build, which holds
	// the same files plus the in-package tests; its external test package is
	// a unit of its own. Dependencies rebuilt for another package's test are
	// skipped: their files are checked in their own build.
	tested := make(map[string]bool)
	for _, p := range pkgs {
		tested[p.ForTest] = true
	}
	checked := 0
	for _, p := range pkgs {
		path, _, _ := strings.Cut(p.ImportPath, " ")
		if !isModel(strings.TrimSuffix(path, "_test")) || strings.HasSuffix(path, ".test") ||
			(p.ForTest == "" && tested[path]) ||
			(p.ForTest != "" && p.ForTest != strings.TrimSuffix(path, "_test")) {
			continue
		}
		var names []string
		for _, name := range p.GoFiles {
			names = append(names, filepath.Join(p.Dir, name))
		}
		fset := token.NewFileSet()
		files, info := typeCheck(t, fset, path, names, nil, p.ImportMap)
		for _, f := range findings(fset, path, files, info) {
			t.Error(f)
		}
		checked++
	}
	if checked < 15 {
		t.Fatalf("checked only %d model packages: the listing is missing the tree", checked)
	}
}
