package analysis

import (
	"go/ast"
	"go/types"
)

// Schedlint enforces the Scheduler seam: model components must program
// against the engine-agnostic sim.Scheduler interface — never the concrete
// *sim.Engine, the sim.Runner run-control surface, or the partitioning
// machinery (*sim.ParallelEngine, *sim.Partition) — so the same
// NIC/switch/kernel code runs unchanged under the sequential engine or inside
// one partition of a parallel run. sim.Scheduler exposes no cross-partition
// Send, SendEvent or Cross, so banning the concrete types keeps those in the
// wiring layer too. Run control (Run, RunUntil, Step, Halt) is the harness's
// job: it is allowed only in sim itself, core, cmd, examples, the root
// package, and tests.
var Schedlint = &Analyzer{
	Name: "schedlint",
	Doc: "model code depends on sim.Scheduler, not concrete engines or " +
		"partitions; run control stays in the harness layer",
	Run: runSchedlint,
}

func runSchedlint(pass *Pass) error {
	path := pass.Pkg.Path()
	strict := IsStrictModelPackage(path)
	runControlFree := IsRunControlAllowed(path)
	if strict == false && runControlFree {
		// Harness-layer package: nothing to enforce.
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !strict || pass.InTestFile(n.Pos()) {
					return true
				}
				obj := pass.Info.Uses[n]
				if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == SimPath {
					switch tn.Name() {
					case "Engine", "Runner", "ParallelEngine", "Partition":
						pass.Reportf(n.Pos(),
							"model code must program against sim.Scheduler, not sim.%s: the same "+
								"component has to run under the sequential engine and inside a "+
								"parallel partition", tn.Name())
					}
				}
				if fn, ok := obj.(*types.Func); ok && (simObject(fn, "NewEngine") || simObject(fn, "NewParallelEngine")) {
					pass.Reportf(n.Pos(),
						"model code must receive its Scheduler from the wiring layer (core), "+
							"not construct an engine itself (sim.%s)", fn.Name())
				}
			case *ast.SelectorExpr:
				if runControlFree || pass.InTestFile(n.Pos()) {
					return true
				}
				if name, ok := simMethod(pass.Info, n); ok {
					switch name {
					case "Run", "RunUntil", "Step", "Halt":
						pass.Reportf(n.Pos(),
							"engine run control (%s) outside the harness layer: only sim, core, "+
								"cmd, examples and tests may drive a run loop", name)
					}
				}
			}
			return true
		})
	}
	return nil
}
