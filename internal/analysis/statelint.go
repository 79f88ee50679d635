package analysis

// Statelint is the serialization half of the checkpoint/sharding contract
// (ROADMAP item 5, LiveStack's full-stack-snapshot constraint): every model
// object must be checkpointable at a quantum boundary, which means its
// transitive state must decompose into plain data plus references that the
// wiring layer can rebuild on restore. The analyzer walks the state graph
// of each checkpoint root — owned structs (they hold a scheduler, so they
// ARE the per-partition state) plus types marked
//
//	//diablo:checkpoint-root
//
// on their type declaration — and classifies every reachable field:
//
//	ok        plain data: scalars, strings, containers of plain data
//	ref       pointer/container of a named struct type audited elsewhere
//	          (its own package's statelint run covers its fields)
//	transient annotated //diablo:transient <reason>: rebuilt by the wiring
//	          layer on restore, excluded from the snapshot
//	blocker   func values, channels, unsafe.Pointer, scheduler references
//	          and other interface fields — none of these serialize, so each
//	          must either become transient (with a reason) or be redesigned
//
// Blockers are findings; the full classification is the per-package
// serialization-readiness report (BuildStateReport), which cmd/simlint
// -readiness writes as the machine-readable worklist for checkpoint/restore.
// A //diablo:transient annotation on a field that is not a blocker is
// itself a finding — annotations must not rot any more than suppressions.
//
// The walk recurses into named struct types declared in the same package
// (by value, pointer, slice, array or map); types from other packages are
// frontier — model-package types are audited by their own package's run,
// and non-model named types are traversed structurally so a blocker smuggled
// in via an embedded stdlib type still surfaces (reported at the local
// field, since the annotation must live where the code can carry it).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// transientPrefix marks a field as rebuilt-on-restore:
//
//	//diablo:transient <reason>
//
// on the field's line or the line directly above it. The reason is
// mandatory.
const transientPrefix = "diablo:transient"

// checkpointRootPrefix marks a type declaration as a checkpoint root even
// though it holds no scheduler field (packet payloads, RNG streams):
//
//	//diablo:checkpoint-root
const checkpointRootPrefix = "diablo:checkpoint-root"

// Statelint is the checkpoint-readiness analyzer.
var Statelint = &Analyzer{
	Name: "statelint",
	Doc: "state reachable from checkpoint roots must serialize: func/chan/" +
		"unsafe.Pointer/interface fields need //diablo:transient <reason> or a redesign",
	Run: runStatelint,
}

func runStatelint(pass *Pass) error {
	if !IsModelPackage(pass.Pkg.Path()) {
		return nil
	}
	pkg := pass.pkg
	if pkg == nil {
		pkg = &Package{Path: pass.Pkg.Path(), Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.Info}
	}
	rep := BuildStateReport(pkg)
	for _, f := range rep.Fields {
		switch f.Class {
		case StateBlocker:
			pass.Reportf(f.pos, "checkpoint-blocking field %s.%s (%s): %s; annotate "+
				"//diablo:transient <reason> if the wiring layer rebuilds it on restore",
				f.Struct, f.Field, f.Type, f.Note)
		case stateStaleTransient:
			pass.Reportf(f.pos, "stale //diablo:transient on %s.%s (%s): the field serializes "+
				"fine; remove the annotation", f.Struct, f.Field, f.Type)
		}
	}
	for _, d := range rep.malformed {
		pass.Reportf(d.Pos, "%s", d.Message)
	}
	return nil
}

// StateClass classifies one reachable field for the readiness report.
type StateClass string

const (
	StateOK        StateClass = "ok"
	StateRef       StateClass = "ref"
	StateTransient StateClass = "transient"
	StateBlocker   StateClass = "blocker"

	// stateStaleTransient is internal: an annotation on a field that needs
	// none. It becomes a finding, not a report row.
	stateStaleTransient StateClass = "stale-transient"
)

// A StateField is one classified field of the readiness report.
type StateField struct {
	// Struct and Field name the declaration; Path is the access path from
	// the root when the field was reached through nesting.
	Struct string     `json:"struct"`
	Field  string     `json:"field"`
	Type   string     `json:"type"`
	Class  StateClass `json:"class"`
	Note   string     `json:"note,omitempty"`

	pos token.Pos
}

// A StateReport is one package's serialization-readiness worklist.
type StateReport struct {
	Package string `json:"package"`
	// Roots lists the audited checkpoint roots (owned structs and marked
	// types) in source order.
	Roots []string `json:"roots"`
	// Ready means no blockers remain: everything reachable either
	// serializes or is declared transient.
	Ready bool `json:"ready"`
	// Blockers / Transient / Total count the classified fields.
	Blockers  int          `json:"blockers"`
	Transient int          `json:"transient"`
	Total     int          `json:"total"`
	Fields    []StateField `json:"fields"`

	malformed []Diagnostic
}

// BuildStateReport walks the package's checkpoint roots and classifies
// every reachable field.
func BuildStateReport(pkg *Package) *StateReport {
	w := &stateWalker{
		pkg:        pkg,
		g:          pkg.CallGraph(),
		transient:  collectMarkedLines(pkg, transientPrefix),
		rootMarks:  collectMarkedLines(pkg, checkpointRootPrefix),
		transUsed:  make(map[markKey]bool),
		auditedVia: make(map[*types.Named]bool),
	}
	rep := &StateReport{Package: pkg.Path}

	var roots []*types.Named
	roots = append(roots, w.g.OwnedStructs()...)
	for _, n := range w.markedRoots() {
		if w.g.owned[n] == nil {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Obj().Pos() < roots[j].Obj().Pos() })

	for _, root := range roots {
		if strings.HasSuffix(pkg.Fset.Position(root.Obj().Pos()).Filename, "_test.go") {
			continue
		}
		rep.Roots = append(rep.Roots, root.Obj().Name())
		w.walkStruct(rep, root)
	}
	w.reportStaleTransients(rep)

	rep.Ready = true
	for _, f := range rep.Fields {
		if f.Class == stateStaleTransient {
			continue
		}
		rep.Total++
		switch f.Class {
		case StateBlocker:
			rep.Blockers++
			rep.Ready = false
		case StateTransient:
			rep.Transient++
		}
	}
	rep.malformed = w.malformed
	return rep
}

type markKey struct {
	file string
	line int
}

type stateWalker struct {
	pkg       *Package
	g         *CallGraph
	transient map[markKey]string // annotated line -> reason ("" = missing)
	rootMarks map[markKey]string

	transUsed  map[markKey]bool
	auditedVia map[*types.Named]bool
	malformed  []Diagnostic
}

// collectMarkedLines indexes //diablo:<prefix> comments by file:line.
func collectMarkedLines(pkg *Package, prefix string) map[markKey]string {
	marks := make(map[markKey]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, prefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
				p := pkg.Fset.Position(c.Pos())
				marks[markKey{p.Filename, p.Line}] = rest
			}
		}
	}
	return marks
}

// markedRoots resolves //diablo:checkpoint-root annotations to struct types.
func (w *stateWalker) markedRoots() []*types.Named {
	var out []*types.Named
	for _, f := range w.pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if !w.marked(w.rootMarks, ts.Pos()) {
				return true
			}
			if tn, ok := w.pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isStruct := named.Underlying().(*types.Struct); isStruct {
						out = append(out, named)
					}
				}
			}
			return true
		})
	}
	return out
}

// marked reports whether pos's line (or the line above) carries a mark.
func (w *stateWalker) marked(marks map[markKey]string, pos token.Pos) bool {
	p := w.pkg.Fset.Position(pos)
	if _, ok := marks[markKey{p.Filename, p.Line}]; ok {
		return true
	}
	_, ok := marks[markKey{p.Filename, p.Line - 1}]
	return ok
}

// transientReason returns (annotated, reason, key) for a field position.
func (w *stateWalker) transientReason(pos token.Pos) (bool, string, markKey) {
	p := w.pkg.Fset.Position(pos)
	for _, k := range []markKey{{p.Filename, p.Line}, {p.Filename, p.Line - 1}} {
		if r, ok := w.transient[k]; ok {
			return true, r, k
		}
	}
	return false, "", markKey{}
}

// walkStruct classifies every field of a root (and of same-package structs
// it nests), cycle-safe via auditedVia.
func (w *stateWalker) walkStruct(rep *StateReport, named *types.Named) {
	if w.auditedVia[named] {
		return
	}
	w.auditedVia[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	var nested []*types.Named
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		sf := StateField{
			Struct: named.Obj().Name(),
			Field:  field.Name(),
			Type:   types.TypeString(field.Type(), types.RelativeTo(w.pkg.Types)),
			pos:    field.Pos(),
		}
		class, note, more := w.classify(field.Type())
		sf.Class, sf.Note = class, note
		if annotated, reason, key := w.transientReason(field.Pos()); annotated {
			w.transUsed[key] = true
			switch {
			case reason == "":
				w.malformed = append(w.malformed, Diagnostic{
					Pos:     field.Pos(),
					Message: fmt.Sprintf("transient annotation without a reason on %s.%s: want //diablo:transient <reason>", sf.Struct, sf.Field),
				})
			case class == StateBlocker:
				sf.Class, sf.Note = StateTransient, reason
			default:
				sf.Class, sf.Note = stateStaleTransient, note
			}
		}
		rep.Fields = append(rep.Fields, sf)
		nested = append(nested, more...)
	}
	for _, n := range nested {
		w.walkStruct(rep, n)
	}
}

// classify maps one field type to its class, returning same-package struct
// types to recurse into.
func (w *stateWalker) classify(t types.Type) (StateClass, string, []*types.Named) {
	return w.classifyDepth(t, 0)
}

func (w *stateWalker) classifyDepth(t types.Type, depth int) (StateClass, string, []*types.Named) {
	if depth > 8 {
		return StateOK, "", nil
	}
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if typeIs(u, SimPath, "Scheduler") {
			return StateBlocker, "scheduler reference (the partition wiring, not model state)", nil
		}
		if u.Obj().Pkg() == w.pkg.Types {
			if _, isStruct := u.Underlying().(*types.Struct); isStruct {
				return StateOK, "", []*types.Named{u}
			}
			return w.classifyDepth(u.Underlying(), depth+1)
		}
		if u.Obj().Pkg() != nil && IsModelPackage(u.Obj().Pkg().Path()) {
			if _, isStruct := u.Underlying().(*types.Struct); isStruct {
				return StateRef, "audited by " + u.Obj().Pkg().Path(), nil
			}
		}
		return w.classifyDepth(u.Underlying(), depth+1)
	case *types.Pointer:
		class, note, nested := w.classifyDepth(u.Elem(), depth+1)
		if class == StateOK && len(nested) > 0 {
			return StateOK, note, nested
		}
		if class == StateOK {
			return StateRef, "pointer (needs identity-preserving encode)", nil
		}
		return class, note, nested
	case *types.Slice:
		return w.containerClass(u.Elem(), depth)
	case *types.Array:
		return w.containerClass(u.Elem(), depth)
	case *types.Map:
		kc, kn, kNested := w.classifyDepth(u.Key(), depth+1)
		if kc == StateBlocker {
			return kc, "map key: " + kn, nil
		}
		vc, vn, vNested := w.containerClass(u.Elem(), depth)
		return vc, vn, append(kNested, vNested...)
	case *types.Signature:
		return StateBlocker, "func value — closures do not serialize", nil
	case *types.Chan:
		return StateBlocker, "channel — runtime plumbing, not snapshot state", nil
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return StateBlocker, "unsafe.Pointer — untyped memory cannot be encoded", nil
		}
		return StateOK, "", nil
	case *types.Interface:
		if u.Empty() {
			return StateBlocker, "interface{} field — needs a concrete-type registry to encode", nil
		}
		return StateBlocker, "interface field — needs a concrete-type registry to encode", nil
	case *types.Struct:
		// Anonymous / foreign struct: traverse structurally so an embedded
		// blocker surfaces at the local field.
		for i := 0; i < u.NumFields(); i++ {
			if c, n, _ := w.classifyDepth(u.Field(i).Type(), depth+1); c == StateBlocker {
				return c, "via field " + u.Field(i).Name() + ": " + n, nil
			}
		}
		return StateOK, "", nil
	}
	return StateOK, "", nil
}

// containerClass classifies a container's element; container-of-struct
// recurses like the struct itself.
func (w *stateWalker) containerClass(elem types.Type, depth int) (StateClass, string, []*types.Named) {
	class, note, nested := w.classifyDepth(elem, depth+1)
	if class == StateBlocker {
		return class, "element: " + note, nil
	}
	return class, note, nested
}

// reportStaleTransients surfaces //diablo:transient annotations that no
// audited field consumed — an annotation on an unreachable struct or a
// gofmt-moved line would otherwise silently stop meaning anything.
func (w *stateWalker) reportStaleTransients(rep *StateReport) {
	var keys []markKey
	for k := range w.transient {
		if !w.transUsed[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		if strings.HasSuffix(k.file, "_test.go") {
			continue
		}
		pos := w.posOnLine(k)
		if !pos.IsValid() {
			continue
		}
		w.malformed = append(w.malformed, Diagnostic{
			Pos: pos,
			Message: "dangling //diablo:transient: no checkpoint-root field on this line " +
				"or the line below; move or remove the annotation",
		})
	}
}

// posOnLine recovers a token.Pos for a file:line mark.
func (w *stateWalker) posOnLine(k markKey) token.Pos {
	for _, f := range w.pkg.Files {
		tf := w.pkg.Fset.File(f.Pos())
		if tf == nil || tf.Name() != k.file {
			continue
		}
		if k.line <= tf.LineCount() {
			return tf.LineStart(k.line)
		}
	}
	return token.NoPos
}
