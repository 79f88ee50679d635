// Package analysis implements simlint: a suite of static analyzers that turn
// the simulator's determinism and scheduler contracts into compile-gate
// errors. DIABLO's headline property is deterministic, cycle-level
// reproducibility at any partition/worker count; the rules that make that
// true (model code schedules only through sim.Scheduler, never reads the
// wall clock or unseeded randomness, never names the partitioning machinery
// that could leak events across quantum barriers) used to live only in
// comments. The analyzers in this package enforce them over every model
// package on each `make lint`; the behavioural halves of the contract
// (allocation budgets, leak balance, golden digests) are tests.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf, testdata fixtures with `// want` expectations) but is built on
// the standard library alone — go/ast, go/types and export data served by
// `go list -export` — so the module keeps its zero-dependency go.mod.
//
// Findings can be suppressed at a specific line with
//
//	//simlint:allow <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory: a suppression without one is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //simlint:allow
	// comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects a single package and reports findings through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diagnostics []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. Several rules
// exempt tests: tests are the sanctioned place to drive engines directly.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Finding is a resolved, position-stamped diagnostic ready for printing.
// Suppressed findings (covered by a //simlint:allow directive) are carried
// through so the machine-readable report can show them; only unsuppressed
// findings gate a lint run.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Run applies the analyzers to one loaded package and resolves findings
// against the //simlint:allow suppressions collected from the package's
// comments: a covered finding comes back with Suppressed set, an uncovered
// one gates the run. Malformed suppression comments, and well-formed ones
// that suppressed nothing any analyzer in this run could have produced
// (stale suppressions — see staleEntries), are appended as findings of the
// framework itself (analyzer name "simlint").
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diagnostics {
			out = append(out, Finding{
				Analyzer:   a.Name,
				Pos:        pkg.Fset.Position(d.Pos),
				Message:    d.Message,
				Suppressed: sup.allows(pkg.Fset, d.Pos, a.Name),
			})
		}
	}
	for _, d := range sup.malformed {
		out = append(out, Finding{Analyzer: "simlint", Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
	}
	for _, d := range sup.staleEntries(analyzers) {
		out = append(out, Finding{Analyzer: "simlint", Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ---------------------------------------------------------------------------
// Package classification
//
// The rules are scoped by import path. Model packages hold simulated-world
// code whose execution must be a pure function of configuration and seeds;
// the harness layer (core, cmd, examples, the root package, tests) is where
// wall-clock measurement and run control legitimately live.

// Paths of the packages the analyzers key on.
const (
	SimPath  = "diablo/internal/sim"
	CorePath = "diablo/internal/core"
)

// modelPrefixes lists every package subtree that holds model code. A fixture
// or future package under any of these prefixes inherits the rules.
var modelPrefixes = []string{
	SimPath,
	CorePath,
	"diablo/internal/kernel",
	"diablo/internal/cpu",
	"diablo/internal/nic",
	"diablo/internal/link",
	"diablo/internal/vswitch",
	"diablo/internal/fault",
	"diablo/internal/tcp",
	"diablo/internal/packet",
	"diablo/internal/apps",
	"diablo/internal/topology",
	"diablo/internal/workload",
	"diablo/internal/obs",
}

func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// IsModelPackage reports whether path holds model code subject to the
// determinism rules.
func IsModelPackage(path string) bool {
	for _, p := range modelPrefixes {
		if hasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

// IsStrictModelPackage reports whether path is a model package that must
// stay engine-agnostic: everything model except sim (which implements the
// engines) and core (which wires them).
func IsStrictModelPackage(path string) bool {
	return IsModelPackage(path) &&
		!hasPathPrefix(path, SimPath) && !hasPathPrefix(path, CorePath)
}

// IsRunControlAllowed reports whether path may drive engines directly
// (Run/RunUntil/Step/Halt): the engine package itself, the wiring layer,
// binaries and examples. Test files are exempted separately.
func IsRunControlAllowed(path string) bool {
	return path == "diablo" ||
		hasPathPrefix(path, SimPath) ||
		hasPathPrefix(path, CorePath) ||
		hasPathPrefix(path, "diablo/cmd") ||
		hasPathPrefix(path, "diablo/examples")
}

// ---------------------------------------------------------------------------
// Type helpers shared by the analyzers.

// namedOf strips one pointer and returns the named type underneath, or nil.
// It is where the analyzers see through aliases (go/types materialises
// `type A = B`, and the predeclared any, as *types.Alias from go 1.23 on).
func namedOf(t types.Type) *types.Named {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// typeIs reports whether t (after stripping one pointer) is the named type
// pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isSimChrono reports whether t is sim.Time or sim.Duration.
func isSimChrono(t types.Type) bool {
	return typeIs(t, SimPath, "Time") || typeIs(t, SimPath, "Duration")
}

// isStdDuration reports whether t is the standard library's time.Duration.
func isStdDuration(t types.Type) bool {
	return typeIs(t, "time", "Duration")
}

// simMethod resolves sel to a method declared in package sim and returns its
// name. Interface methods of sim.Scheduler and concrete methods of
// *sim.Engine, *sim.Partition and *sim.ParallelEngine all resolve here.
func simMethod(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != SimPath {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	return fn.Name(), true
}

// pointsTo reports whether t is a pointer to the named type pkgPath.name.
func pointsTo(t types.Type, pkgPath, name string) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named := namedOf(ptr.Elem())
	return named != nil && named.Obj().Name() == name &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}

// simObject reports whether obj is a package-level object of package sim
// with the given name.
func simObject(obj types.Object, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == SimPath && obj.Name() == name
}
