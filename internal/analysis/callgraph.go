package analysis

// This file is the interprocedural layer under ownlint and statelint: a
// package-level call graph plus per-function field-access summaries. The
// per-function analyzers (detlint, crosslint, ...) inspect one function body
// at a time; ownership leaks, by nature, cross function boundaries — a
// handler calls a helper calls a setter that writes another partition's
// state. The call graph makes "reachable from an event context" a computable
// set, and the summaries make "what state does this path touch" a lookup.
//
// Scope is one package at a time, matching the loader: intra-package calls
// resolve to edges, cross-package calls are frontier (the callee package's
// own analysis run audits its side — every model package is analyzed, so the
// composition covers the whole tree). Edge resolution:
//
//   - direct calls to package functions and concrete methods: an edge;
//   - method values (x.M taken as a value) and bare function references: an
//     edge — the function may run later, in whatever context took the value;
//   - calls through an interface method: conservative fallback — edges to
//     every same-package concrete type that implements the interface, plus
//     the Unknown flag (an out-of-package implementation may exist);
//   - calls through plain func values and out-of-package functions: no edge,
//     the Unknown flag.
//
// Function literals are analyzed as part of the enclosing declaration: a
// closure's sites and calls belong to the function that textually contains
// it.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A FuncNode is one declared function or method of the package under
// analysis, with its outgoing edges and its local (non-transitive) site
// summaries.
type FuncNode struct {
	// Fn is the type-checker's object for the declaration.
	Fn *types.Func
	// Decl is the syntax, including nested function literals.
	Decl *ast.FuncDecl
	// Callees lists the same-package functions this one may call, in source
	// order, deduplicated.
	Callees []*FuncNode
	// Unknown records that at least one call could not be resolved within
	// the package: a func-value invocation or an interface dispatch with no
	// (or not only) in-package implementations. Consumers decide polarity;
	// ownlint treats the frontier as a contract boundary, the tests treat it
	// as the conservative bit.
	Unknown bool

	// Writes are the field writes performed directly in this function
	// (closures included), restricted to fields of owned structs declared in
	// this package.
	Writes []FieldWrite
	// SchedSites are the scheduler-API calls performed directly in this
	// function.
	SchedSites []SchedSite

	calleeSet map[*FuncNode]bool
}

// BaseClass classifies the root of the selector chain an access goes
// through: whose state is this?
type BaseClass uint8

const (
	// BaseUnknown is an unresolvable chain (pointer indirection through a
	// call result, complex aliasing). Consumers stay silent on it.
	BaseUnknown BaseClass = iota
	// BaseRecv roots at the method's receiver.
	BaseRecv
	// BaseParam roots at a parameter of the enclosing function.
	BaseParam
	// BaseFresh roots at a value constructed locally (composite literal,
	// new): state that cannot be owned by anyone else yet.
	BaseFresh
	// BaseGlobal roots at a package-level variable.
	BaseGlobal
	// BaseEventTarget roots at ev.Tgt/ev.Ref of a sim.Event parameter: the
	// dispatch target of a typed handler, which by the scheduling contract
	// is state of the partition the event fired on.
	BaseEventTarget
	// BaseSchedParam is a scheduler-typed parameter used directly as the
	// scheduling surface (the caller chose the context).
	BaseSchedParam
)

func (b BaseClass) String() string {
	switch b {
	case BaseRecv:
		return "receiver"
	case BaseParam:
		return "parameter"
	case BaseFresh:
		return "fresh value"
	case BaseGlobal:
		return "package-level variable"
	case BaseEventTarget:
		return "event target"
	case BaseSchedParam:
		return "scheduler parameter"
	default:
		return "unknown"
	}
}

// A FieldWrite is one assignment (or element/map write, or ++/--) whose
// ultimate target is a field of an owned struct declared in this package.
type FieldWrite struct {
	// Owner is the owned struct type whose field is written.
	Owner *types.Named
	// Field is the written field.
	Field *types.Var
	// Base classifies the chain root; BaseObj is its defining object when
	// the root is a receiver, parameter or package variable.
	Base    BaseClass
	BaseObj types.Object
	// ViaOwned records that the chain passes through a field of owned-struct
	// type strictly between the base and the written field — the write
	// reaches into some other object's state even though the chain starts at
	// the receiver.
	ViaOwned bool
	Pos      token.Pos
}

// A SchedSite is one call on the sim scheduling surface (At, After, AtEvent,
// AfterEvent, Send, SendEvent, Cancel).
type SchedSite struct {
	// Method is the sim method name.
	Method string
	// Base/BaseObj/ViaOwned classify the scheduler expression's chain, as in
	// FieldWrite.
	Base     BaseClass
	BaseObj  types.Object
	ViaOwned bool
	// OwnedRoot, when non-nil, is the owned struct whose scheduler field the
	// chain selects (the partition root being scheduled through).
	OwnedRoot *types.Named
	// TgtBase/TgtBaseObj/TgtOwned classify the Tgt chain of a sim.Event
	// composite literal passed to a typed scheduling call; TgtBase is
	// BaseUnknown when the event is not a literal or carries no Tgt, and
	// TgtOwned is the owned struct the Tgt expression names, if any.
	TgtBase    BaseClass
	TgtBaseObj types.Object
	TgtOwned   *types.Named
	Pos        token.Pos
}

// schedMethods is the sim scheduling surface the summaries record.
var schedMethods = map[string]bool{
	"At": true, "After": true, "AtEvent": true, "AfterEvent": true,
	"Send": true, "SendEvent": true, "Cancel": true,
}

// TypedSchedMethods reports whether name is a typed-lane scheduling method.
func TypedSchedMethod(name string) bool {
	return name == "AtEvent" || name == "AfterEvent" || name == "SendEvent"
}

// A CallGraph is the package's interprocedural view.
type CallGraph struct {
	pkg *Package
	// Nodes maps every declared function/method to its node.
	Nodes map[*types.Func]*FuncNode
	// Sorted lists the nodes in source order (deterministic iteration).
	Sorted []*FuncNode

	owned map[*types.Named]*ownedInfo

	transitive map[*FuncNode][]FieldWrite
}

// ownedInfo describes one owned struct: a struct type with at least one
// sim.Scheduler field. The first scheduler field in declaration order is the
// ownership root; every scheduler field is a sanctioned lane for the
// object's own scheduling (link keeps a second, delivery-side lane).
type ownedInfo struct {
	root   *types.Var
	scheds map[*types.Var]bool
}

// CallGraph returns the package's call graph, building it on first use.
func (p *Package) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// OwnedStructs returns the owned struct types of the package in source
// order: structs declared here with at least one sim.Scheduler field.
func (g *CallGraph) OwnedStructs() []*types.Named {
	var out []*types.Named
	for n := range g.owned {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj().Pos() < out[j].Obj().Pos() })
	return out
}

// OwnershipRoot returns the root scheduler field of an owned struct, or nil.
func (g *CallGraph) OwnershipRoot(n *types.Named) *types.Var {
	if o := g.owned[n]; o != nil {
		return o.root
	}
	return nil
}

// ownedNamed reports the owned struct type t names, stripping one pointer.
func (g *CallGraph) ownedNamed(t types.Type) *types.Named {
	if n := namedOf(t); n != nil && g.owned[n] != nil {
		return n
	}
	return nil
}

// Node returns the node for fn, or nil.
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.Nodes[fn] }

// NodeByName returns the node whose function is named name (methods as
// "Type.Name"), or nil. Test convenience.
func (g *CallGraph) NodeByName(name string) *FuncNode {
	for _, n := range g.Sorted {
		if funcLabel(n.Fn) == name {
			return n
		}
	}
	return nil
}

// funcLabel renders fn as Name or Type.Name.
func funcLabel(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// Reachable computes the set of nodes reachable from the entries (entries
// included), with a shortest example path recorded for diagnostics: the
// returned map's value is the entry-side predecessor (nil for entries).
func (g *CallGraph) Reachable(entries []*FuncNode) map[*FuncNode]*FuncNode {
	seen := make(map[*FuncNode]*FuncNode, len(entries))
	queue := make([]*FuncNode, 0, len(entries))
	for _, e := range entries {
		if _, ok := seen[e]; !ok {
			seen[e] = nil
			queue = append(queue, e)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callees {
			if _, ok := seen[c]; !ok {
				seen[c] = n
				queue = append(queue, c)
			}
		}
	}
	return seen
}

// TransitiveWrites returns the union of n's writes and those of every node
// reachable from it — the interprocedural field-access summary. Cycle-safe;
// results are memoized per graph and ordered by position.
func (g *CallGraph) TransitiveWrites(n *FuncNode) []FieldWrite {
	if w, ok := g.transitive[n]; ok {
		return w
	}
	var out []FieldWrite
	for m := range g.Reachable([]*FuncNode{n}) {
		out = append(out, m.Writes...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	if g.transitive == nil {
		g.transitive = make(map[*FuncNode][]FieldWrite)
	}
	g.transitive[n] = out
	return out
}

// ---------------------------------------------------------------------------
// Construction.

func buildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		pkg:   pkg,
		Nodes: make(map[*types.Func]*FuncNode),
		owned: findOwnedStructs(pkg),
	}
	// Pass 1: nodes for every declaration.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Fn: fn, Decl: fd, calleeSet: make(map[*FuncNode]bool)}
			g.Nodes[fn] = node
			g.Sorted = append(g.Sorted, node)
		}
	}
	sort.Slice(g.Sorted, func(i, j int) bool { return g.Sorted[i].Decl.Pos() < g.Sorted[j].Decl.Pos() })
	// Pass 2: edges and site summaries.
	for _, node := range g.Sorted {
		g.analyze(node)
	}
	return g
}

func findOwnedStructs(pkg *Package) map[*types.Named]*ownedInfo {
	owned := make(map[*types.Named]*ownedInfo)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		info := &ownedInfo{scheds: make(map[*types.Var]bool)}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if typeIs(f.Type(), SimPath, "Scheduler") {
				if info.root == nil {
					info.root = f
				}
				info.scheds[f] = true
			}
		}
		if info.root != nil {
			owned[named] = info
		}
	}
	return owned
}

// analyze fills one node's edges and site summaries from its body.
func (g *CallGraph) analyze(node *FuncNode) {
	ctx := newFuncContext(g, node)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			g.addCallEdges(node, ctx, n)
		case *ast.SelectorExpr:
			// A method value / function reference used outside a call head
			// still creates an edge; call heads were handled above, and
			// double-added edges are deduplicated by calleeSet.
			if fn, ok := g.pkg.Info.Uses[n.Sel].(*types.Func); ok {
				g.addEdge(node, fn)
			}
		case *ast.Ident:
			if fn, ok := g.pkg.Info.Uses[n].(*types.Func); ok {
				g.addEdge(node, fn)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ctx.recordWrite(node, lhs)
			}
		case *ast.IncDecStmt:
			ctx.recordWrite(node, n.X)
		}
		return true
	})
}

// addEdge links caller -> callee when callee is declared in this package.
func (g *CallGraph) addEdge(caller *FuncNode, callee *types.Func) {
	target, ok := g.Nodes[callee]
	if !ok || target == caller || caller.calleeSet[target] {
		return
	}
	caller.calleeSet[target] = true
	caller.Callees = append(caller.Callees, target)
}

// addCallEdges resolves one call expression.
func (g *CallGraph) addCallEdges(node *FuncNode, ctx *funcContext, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := g.pkg.Info.Uses[fun].(type) {
		case *types.Func:
			g.addEdge(node, obj)
		case *types.Var:
			node.Unknown = true // func-value call
		}
	case *ast.SelectorExpr:
		// Scheduler-surface call? Record the site either way.
		if name, ok := simMethod(g.pkg.Info, fun); ok && schedMethods[name] {
			ctx.recordSchedSite(node, call, fun, name)
		}
		sel, ok := g.pkg.Info.Selections[fun]
		if !ok {
			// Package-qualified call (pkg.Fn): Uses resolves it.
			if fn, ok := g.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
				g.addEdge(node, fn)
			}
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			node.Unknown = true // func-typed field call
			return
		}
		recv := sel.Recv()
		if types.IsInterface(recv) {
			g.addInterfaceEdges(node, recv, fn)
			return
		}
		if fn.Pkg() == g.pkg.Types {
			g.addEdge(node, fn)
		}
	default:
		// Immediately-invoked literals contribute their body (inspected as
		// part of this declaration); anything else is an unresolved value.
		if _, ok := call.Fun.(*ast.FuncLit); !ok {
			node.Unknown = true
		}
	}
}

// addInterfaceEdges is the conservative interface-dispatch fallback: edges
// to every same-package concrete implementation of the method, plus Unknown
// (an implementation may live in another package).
func (g *CallGraph) addInterfaceEdges(node *FuncNode, recv types.Type, ifaceMethod *types.Func) {
	node.Unknown = true
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	scope := g.pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, g.pkg.Types, ifaceMethod.Name())
		if m, ok := obj.(*types.Func); ok {
			g.addEdge(node, m)
		}
	}
}

// ---------------------------------------------------------------------------
// Chain classification.

// chainInfo is the result of resolving a selector chain to its root.
type chainInfo struct {
	base     BaseClass
	baseObj  types.Object
	viaOwned bool
}

// funcContext carries the per-function state for chain classification: the
// receiver object and a flow-insensitive origin map for local variables.
type funcContext struct {
	g      *CallGraph
	info   *types.Info
	recv   types.Object
	params map[types.Object]bool

	origins  map[types.Object]ast.Expr // local var -> defining RHS
	resolved map[types.Object]chainInfo
	visiting map[types.Object]bool
}

func newFuncContext(g *CallGraph, node *FuncNode) *funcContext {
	ctx := &funcContext{
		g:        g,
		info:     g.pkg.Info,
		params:   make(map[types.Object]bool),
		origins:  make(map[types.Object]ast.Expr),
		resolved: make(map[types.Object]chainInfo),
		visiting: make(map[types.Object]bool),
	}
	sig := node.Fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		ctx.recv = r
	}
	// The declared receiver ident (not the types.Signature receiver) is what
	// body identifiers resolve to.
	if node.Decl.Recv != nil {
		for _, f := range node.Decl.Recv.List {
			for _, n := range f.Names {
				if obj := ctx.info.Defs[n]; obj != nil {
					ctx.recv = obj
				}
			}
		}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		ctx.params[sig.Params().At(i)] = true
	}
	// Parameters resolve through Defs on the declaration's field names; the
	// signature vars and the def'd idents are the same objects for source
	// packages, but collect both to be safe. Also collect local origins
	// (closure bodies included — Inspect covers them).
	ast.Inspect(node.Decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure parameters count as parameters of the context.
			if t, ok := ctx.info.Types[n].Type.(*types.Signature); ok {
				for i := 0; i < t.Params().Len(); i++ {
					ctx.params[t.Params().At(i)] = true
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := ctx.info.Defs[id]
					if obj == nil && n.Tok.String() == "=" {
						obj = ctx.info.Uses[id]
					}
					if v, ok := obj.(*types.Var); ok && !v.IsField() && !ctx.params[obj] {
						if _, seen := ctx.origins[obj]; !seen {
							ctx.origins[obj] = n.Rhs[i]
						}
					}
				}
			}
		}
		return true
	})
	return ctx
}

// chain resolves e to its root classification.
func (ctx *funcContext) chain(e ast.Expr) chainInfo {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := ctx.info.Uses[e]
		if obj == nil {
			obj = ctx.info.Defs[e]
		}
		return ctx.classifyObject(obj)
	case *ast.SelectorExpr:
		inner := ctx.chain(e.X)
		// Selecting ev.Tgt / ev.Ref off a sim.Event chain yields the
		// dispatch target.
		if typeIs(ctx.info.TypeOf(e.X), SimPath, "Event") &&
			(e.Sel.Name == "Tgt" || e.Sel.Name == "Ref") {
			return chainInfo{base: BaseEventTarget}
		}
		// Passing through a field whose X is an owned struct that is not
		// itself the chain base marks the chain as reaching into another
		// object's state.
		if _, isIdent := ast.Unparen(e.X).(*ast.Ident); !isIdent {
			if ctx.g.ownedNamed(ctx.info.TypeOf(e.X)) != nil {
				inner.viaOwned = true
			}
		}
		return inner
	case *ast.StarExpr:
		return ctx.chain(e.X)
	case *ast.IndexExpr:
		return ctx.chain(e.X)
	case *ast.TypeAssertExpr:
		return ctx.chain(e.X)
	case *ast.CompositeLit:
		return chainInfo{base: BaseFresh}
	case *ast.UnaryExpr:
		return ctx.chain(e.X) // &lit, &x.f
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && ctx.info.Uses[id] == types.Universe.Lookup("new") {
			return chainInfo{base: BaseFresh}
		}
		return chainInfo{base: BaseUnknown}
	}
	return chainInfo{base: BaseUnknown}
}

// classifyObject maps a chain-base object to its class, chasing local
// variables to their defining expressions.
func (ctx *funcContext) classifyObject(obj types.Object) chainInfo {
	switch {
	case obj == nil:
		return chainInfo{base: BaseUnknown}
	case obj == ctx.recv:
		return chainInfo{base: BaseRecv, baseObj: obj}
	case ctx.params[obj]:
		return chainInfo{base: BaseParam, baseObj: obj}
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return chainInfo{base: BaseUnknown}
	}
	if v.Parent() == ctx.g.pkg.Types.Scope() {
		return chainInfo{base: BaseGlobal, baseObj: obj}
	}
	if c, ok := ctx.resolved[obj]; ok {
		return c
	}
	if ctx.visiting[obj] {
		return chainInfo{base: BaseUnknown}
	}
	rhs, ok := ctx.origins[obj]
	if !ok {
		return chainInfo{base: BaseUnknown}
	}
	ctx.visiting[obj] = true
	c := ctx.chain(rhs)
	delete(ctx.visiting, obj)
	c.baseObj = firstNonNil(c.baseObj, obj)
	ctx.resolved[obj] = c
	return c
}

func firstNonNil(objs ...types.Object) types.Object {
	for _, o := range objs {
		if o != nil {
			return o
		}
	}
	return nil
}

// recordWrite classifies one assignment target; only writes that land in a
// field of an owned struct declared in this package are summarized.
func (ctx *funcContext) recordWrite(node *FuncNode, lhs ast.Expr) {
	// Unwrap element/indirection layers down to the innermost selector: a
	// map/slice element write mutates the field holding the container.
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := ctx.info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	owner := ctx.g.ownedNamed(selection.Recv())
	if owner == nil || owner.Obj().Pkg() != ctx.g.pkg.Types {
		return
	}
	c := ctx.chain(sel.X)
	node.Writes = append(node.Writes, FieldWrite{
		Owner:    owner,
		Field:    field,
		Base:     c.base,
		BaseObj:  c.baseObj,
		ViaOwned: c.viaOwned,
		Pos:      lhs.Pos(),
	})
}

// recordSchedSite summarizes one scheduling call.
func (ctx *funcContext) recordSchedSite(node *FuncNode, call *ast.CallExpr, fun *ast.SelectorExpr, name string) {
	site := SchedSite{Method: name, Pos: call.Pos()}

	// Classify the scheduler expression. A bare scheduler-typed parameter
	// (or a local bound to one) is its own class: the caller picked the
	// context.
	c := ctx.chain(fun.X)
	site.Base, site.BaseObj, site.ViaOwned = c.base, c.baseObj, c.viaOwned
	if c.base == BaseParam && typeIs(ctx.info.TypeOf(fun.X), SimPath, "Scheduler") {
		if _, direct := ast.Unparen(fun.X).(*ast.Ident); direct {
			site.Base = BaseSchedParam
		}
	}
	// Does the scheduler expression select a scheduler field of an owned
	// struct? Then the site schedules through that struct's root/lane.
	if selX, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
		if s, ok := ctx.info.Selections[selX]; ok && s.Kind() == types.FieldVal {
			if owner := ctx.g.ownedNamed(s.Recv()); owner != nil {
				if f, ok := s.Obj().(*types.Var); ok && ctx.g.owned[owner].scheds[f] {
					site.OwnedRoot = owner
				}
			}
		}
	}
	// Typed lane: classify the Tgt chain of a sim.Event literal argument.
	if TypedSchedMethod(name) {
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
			if !ok || !typeIs(ctx.info.TypeOf(lit), SimPath, "Event") {
				continue
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Tgt" {
					tc := ctx.chain(kv.Value)
					site.TgtBase, site.TgtBaseObj = tc.base, tc.baseObj
					site.TgtOwned = ctx.g.ownedNamed(ctx.info.TypeOf(kv.Value))
				}
			}
		}
	}
	node.SchedSites = append(node.SchedSites, site)
}
