// Package fixture exercises statelint: checkpoint roots (owned structs and
// //diablo:checkpoint-root types), blocker classification, the
// //diablo:transient escape hatch and its staleness checks.
package fixture

import (
	"unsafe"

	"diablo/internal/sim"
)

// opaque is a local alias. go/types materialises it as *types.Alias from
// go 1.23 on (as it does the predeclared any); classification must see
// through both.
type opaque = any

// Comp is an owned struct, hence a checkpoint root.
type Comp struct {
	//diablo:transient partition wiring; reattached on restore
	sched sim.Scheduler

	count int    // plain data: no finding
	name  string // plain data: no finding

	hook func()         // want `checkpoint-blocking field Comp\.hook \(func\(\)\): func value`
	wake chan struct{}  // want `checkpoint-blocking field Comp\.wake \(chan struct\{\}\): channel`
	raw  unsafe.Pointer // want `checkpoint-blocking field Comp\.raw \(unsafe\.Pointer\)`
	blob any            // want `checkpoint-blocking field Comp\.blob \(any\): interface\{\} field`
	via  opaque         // want `checkpoint-blocking field Comp\.via \(opaque\): interface\{\} field`
	errs []func() error // want `checkpoint-blocking field Comp\.errs \(\[\]func\(\) error\): element: func value`
	tab  map[int]func() // want `checkpoint-blocking field Comp\.tab \(map\[int\]func\(\)\): element: func value`

	//diablo:transient rebuilt by the wiring layer on restore
	probe func() float64 // annotated blocker: transient, no finding

	//diablo:transient annotated but serializes fine
	level int // want `stale //diablo:transient on Comp\.level`

	// A reasonless annotation is malformed and does NOT silence the blocker.
	//diablo:transient
	bare func() // want `transient annotation without a reason on Comp\.bare` `checkpoint-blocking field Comp\.bare`

	inner nested // recursion reaches the nested struct's fields
}

// nested is reached from Comp by value; its blocker is reported at its own
// declaration.
type nested struct {
	ticks int
	fire  func() // want `checkpoint-blocking field nested\.fire \(func\(\)\): func value`
}

// Frame has no scheduler field but is declared a root explicitly.
//
//diablo:checkpoint-root
type Frame struct {
	seq     uint64
	payload any // want `checkpoint-blocking field Frame\.payload \(any\)`
}

// orphan is not reachable from any root: nothing in it is audited, so its
// blocker-shaped field produces no finding. (A //diablo:transient annotation
// on an unreachable struct would be reported as dangling — see the
// statelint_dangling fixture.)
type orphan struct {
	f func()
}

// Covered proves the suppression path: the blocker is acknowledged with a
// //simlint:allow instead of a transient annotation (the field stays on the
// readiness worklist as a blocker, but does not gate the run).
type Covered struct {
	//diablo:transient partition wiring; reattached on restore
	sched sim.Scheduler

	//simlint:allow statelint scratch buffer, never live at a quantum boundary
	scratch chan int
}
