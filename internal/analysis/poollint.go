package analysis

// Poollint enforces the packet-lifecycle half of the zero-allocation contract
// (DESIGN.md §5.11). Two rules, both scoped to model packages:
//
// Rule A — no sync.Pool. The slab pools in diablo/internal/packet are
// deterministic: LIFO recycling per partition, generation-tagged slots, a
// ledger that must balance. sync.Pool is none of those things — its per-P
// caches drain on GC, so object identity (and therefore any address-derived
// or reuse-order-derived behavior) varies run to run, which the replay
// contract cannot tolerate. Any mention of sync.Pool in model code fires.
//
// Rule B — Get implies a reachable Release. A function that calls
// (*packet.Pool).Get owns the packet it took. It discharges that ownership
// either by releasing it — a call to (*packet.Pool).Release reachable from
// the function through the package call graph — or by handing it off, which
// in this codebase means returning the *packet.Packet to the caller (the
// kernel's newPacket shape). A Get with neither is a leak by construction:
// the packet can never return to its slab, and the lifecycle ledger
// (Cluster.PacketPoolStats) will count it live forever.
//
// The pool's own package is exempt (it implements the lifecycle), as are
// test files (scenario scripts allocate and lean on ReleaseInFlight).
// Deliberate exceptions carry //simlint:allow poollint <reason>.

import (
	"go/ast"
	"go/types"
)

// Poollint is the packet-lifecycle analyzer.
var Poollint = &Analyzer{
	Name: "poollint",
	Doc: "model packages must not use sync.Pool (nondeterministic reuse), and " +
		"every (*packet.Pool).Get needs a reachable Release or a *packet.Packet " +
		"hand-off return",
	Run: runPoollint,
}

// packetPath is the import path of the slab-pool package poollint polices.
const packetPath = "diablo/internal/packet"

func runPoollint(pass *Pass) error {
	path := pass.Pkg.Path()
	if !IsModelPackage(path) || hasPathPrefix(path, packetPath) {
		return nil
	}

	// Rule A: every reference to the sync.Pool type name fires — a field
	// declaration, a composite literal, a var, a conversion. Importing sync
	// for its mutexes is of course fine.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || pass.InTestFile(sel.Pos()) {
				return true
			}
			if tn, ok := pass.Info.Uses[sel.Sel].(*types.TypeName); ok &&
				tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
				pass.Reportf(sel.Pos(),
					"sync.Pool in a model package: per-P caches drain on GC, so reuse "+
						"order is nondeterministic; use the partition's packet.Pool slab "+
						"allocator (deterministic LIFO, ledger-audited)")
			}
			return true
		})
	}

	// Rule B needs the call graph for Release reachability.
	pkg := &Package{Path: path, Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.Info}
	g := passCallGraph(pass, pkg)

	// First pass over the nodes: where does each function touch the pool?
	gets := make(map[*FuncNode][]ast.Node) // Get call sites per function
	releases := make(map[*FuncNode]bool)   // function calls Release directly
	for _, node := range g.Sorted {
		ast.Inspect(node.Decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch poolMethod(pass.Info, sel) {
			case "Get":
				gets[node] = append(gets[node], sel)
			case "Release":
				releases[node] = true
			}
			return true
		})
	}

	for _, node := range g.Sorted {
		sites := gets[node]
		if len(sites) == 0 {
			continue
		}
		if returnsPacket(node.Fn) {
			continue // hand-off shape: the caller owns the packet now
		}
		reach := g.Reachable([]*FuncNode{node})
		released := false
		for m := range reach {
			if releases[m] {
				released = true
				break
			}
		}
		if released {
			continue
		}
		for _, site := range sites {
			if pass.InTestFile(site.Pos()) {
				continue
			}
			pass.Reportf(site.Pos(),
				"packet.Pool.Get with no reachable Release: the packet can never "+
					"return to its slab; release it at the final-consumer site or "+
					"return the *packet.Packet to transfer ownership")
		}
	}
	return nil
}

// poolMethod resolves sel to a method of packet.Pool and returns its name
// ("" when it is not one).
func poolMethod(info *types.Info, sel *ast.SelectorExpr) string {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != packetPath {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return ""
	}
	if named := namedOf(recv.Type()); named == nil || named.Obj().Name() != "Pool" {
		return ""
	}
	return fn.Name()
}

// returnsPacket reports whether fn returns a *packet.Packet in any result
// position.
func returnsPacket(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if pointsTo(sig.Results().At(i).Type(), packetPath, "Packet") {
			return true
		}
	}
	return false
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
