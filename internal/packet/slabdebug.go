//go:build slabdebug

package packet

import (
	"fmt"
	"runtime"
	"sync"
)

// With the slabdebug build tag every pool Get records its call site and every
// Release records where the packet died; the hot-path accessors then turn a
// use-after-release into a panic naming both sites, and double releases name
// the first Release. The registry is keyed by slot pointer and guarded by a
// plain mutex — slabdebug is a diagnostic build, and the registry never
// influences simulation behavior, so cross-partition locking here cannot
// perturb results.

// SlabDebug reports whether this build carries the diagnostic registry.
// Benchmarks and allocation gates consult it: every Get/Release feeds the
// registry, so per-packet allocation figures are meaningless under the tag.
const SlabDebug = true

var slabReg = struct {
	sync.Mutex
	sites map[*Packet]*slabSite
}{sites: make(map[*Packet]*slabSite)}

type slabSite struct {
	get     string // call site of the Get that produced the live handle
	release string // call site of the Release that parked it ("" while live)
	gen     uint32
}

// slabCaller formats the model-level call site, skipping the packet-package
// frames (this helper, the hook, Pool.Get/Release).
func slabCaller() string {
	pc, file, line, ok := runtime.Caller(3)
	if !ok {
		return "unknown"
	}
	site := fmt.Sprintf("%s:%d", file, line)
	if fn := runtime.FuncForPC(pc); fn != nil {
		site = fmt.Sprintf("%s (%s)", site, fn.Name())
	}
	return site
}

func slabdebugGet(pkt *Packet) {
	site := slabCaller()
	slabReg.Lock()
	slabReg.sites[pkt] = &slabSite{get: site, gen: pkt.pgen}
	slabReg.Unlock()
}

func slabdebugRelease(pkt *Packet) {
	site := slabCaller()
	slabReg.Lock()
	if s := slabReg.sites[pkt]; s != nil {
		s.release = site
	}
	slabReg.Unlock()
}

// slabdebugSite renders " (allocated at ..., released at ...)" for panics.
func slabdebugSite(pkt *Packet) string {
	slabReg.Lock()
	s := slabReg.sites[pkt]
	slabReg.Unlock()
	if s == nil {
		return ""
	}
	msg := fmt.Sprintf(" (gen %d allocated at %s", s.gen, s.get)
	if s.release != "" {
		msg += fmt.Sprintf(", released at %s", s.release)
	}
	return msg + ")"
}

// checkLive panics when a hot-path accessor touches a released packet: the
// holder kept a handle past the owner's Release, exactly the bug class the
// ownership rules in DESIGN.md §5.10 exist to prevent.
func checkLive(p *Packet) {
	if p == nil || p.pstate != psReleased {
		return
	}
	panic(fmt.Sprintf("packet: use after release%s", slabdebugSite(p)))
}
