package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Detlint bans nondeterminism vectors from model packages: wall-clock reads,
// the global math/rand generator, goroutine launches, sync.Pool, and map
// iteration that feeds the event queue or a result slice. Any one of these
// makes a run's outcome depend on the host instead of on (configuration,
// seeds), which is the property every byte-identical-replay test in this repo
// asserts.
//
// Test files are covered too: a test that schedules from a map range or
// draws from math/rand flakes in exactly the way model code would.
var Detlint = &Analyzer{
	Name: "detlint",
	Doc: "forbid nondeterminism vectors (wall clock, math/rand, go statements, " +
		"sync.Pool, order-sensitive map iteration) in model packages",
	Run: runDetlint,
}

func runDetlint(pass *Pass) error {
	if !IsModelPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"model code must not import %s: use sim.Rand seeded via sim.DeriveSeed, "+
						"so every component owns a labeled, reproducible stream", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement in model code: model execution must be single-threaded under its "+
						"sim.Scheduler; host concurrency belongs to the engine (sim) and harness layers")
			case *ast.SelectorExpr:
				if tn, ok := pass.Info.Uses[n.Sel].(*types.TypeName); ok &&
					tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
					pass.Reportf(n.Pos(),
						"sync.Pool in model code: its per-P caches drain on GC, so reuse order "+
							"varies run to run; use the partition's packet.Pool (deterministic LIFO)")
				}
				if fn, ok := pass.Info.Uses[n.Sel].(*types.Func); ok &&
					fn.Pkg() != nil && fn.Pkg().Path() == "time" {
					switch fn.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(n.Pos(),
							"wall-clock time.%s in model code: simulated time must come from "+
								"Scheduler.Now so results do not depend on host speed", fn.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags `range m` over a map whose body schedules events, makes
// a simulated syscall (any call handed a *kernel.Thread: each one advances
// simulated time on that thread) or appends to a slice declared outside the
// loop: Go randomizes map iteration order, so the event queue contents, the
// thread's timeline and the slice element order would differ run to run. Pure
// per-entry work (sums, deletes, lookups) is fine.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if pointsTo(pass.Info.TypeOf(arg), "diablo/internal/kernel", "Thread") {
				pass.Reportf(call.Pos(),
					"simulated syscall while ranging over a map: every call that takes the "+
						"*kernel.Thread advances simulated time, so the thread's timeline would follow "+
						"the randomized iteration order; iterate a slice or sorted keys instead")
				break
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if name, ok := simMethod(pass.Info, sel); ok {
				switch name {
				case "At", "After", "Send":
					pass.Reportf(call.Pos(),
						"event scheduled while ranging over a map: iteration order is randomized, "+
							"so the event queue's tie-break order would differ run to run; iterate "+
							"sorted keys instead")
				}
			}
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if target, ok := call.Args[0].(*ast.Ident); ok {
				if obj := pass.Info.Uses[target]; obj != nil && obj.Pos() < rng.Pos() {
					pass.Reportf(call.Pos(),
						"append to %s while ranging over a map: element order would be randomized; "+
							"iterate sorted keys instead", target.Name)
				}
			}
		}
		return true
	})
}
