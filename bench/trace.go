package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"diablo/internal/core"
	"diablo/internal/kernel"
	"diablo/internal/sim"
	"diablo/internal/vswitch"
)

// Per-layer attribution taken from outside the program. Every hot event
// crosses the typed lane's jump table, and each EvKind is claimed by exactly
// one model package, so wrapping the registered handlers prices each layer
// without touching model code:
//
//  1. capture the handlers the packages register, by handing a recording
//     sim.HandlerRegistrar to their public RegisterEventHandlers;
//  2. from OnCluster, re-register timing wrappers on the cluster's engine
//     (registration is last-wins).
//
// A handler's time is everything it calls synchronously, whichever package
// that code lives in: EvPacketHop runs the receiving switch's admission or
// the NIC's ring push, and the kernel kinds run the goroutine hand-off, tcp
// and the application code on simulated threads. README.md, "Limits of
// outside attribution", spells this out.

// layerOf groups event kinds by the package that claims them.
var layerOf = map[sim.EvKind]string{
	sim.EvPacketHop:         "link",
	sim.EvSwitchTxDone:      "vswitch",
	sim.EvSwitchWake:        "vswitch",
	sim.EvNicTx:             "nic",
	sim.EvNicRxIntr:         "nic",
	sim.EvKernelSpan:        "kernel",
	sim.EvTimerTick:         "kernel",
	sim.EvLoopback:          "kernel",
	sim.EvThreadWake:        "kernel",
	sim.EvThreadWakeBlocked: "kernel",
}

// handlerLayers are the layers priced by handler interposition, in the order
// the table prints them; "sim" (self time) follows them.
var handlerLayers = []string{"link", "vswitch", "nic", "kernel"}

// Every handler invocation is counted, but only one in timeEvery per kind is
// timed, and its time scaled up: two clock reads around each of the millions
// of events of a repetition cost a third of the run on the reference
// container, one in seven costs a few percent and still leaves each kind
// 10^4–10^5 timings. The stride is prime so that it cannot lock onto a
// short cycle in a kind's events (TCP's ACK-every-second-segment, say). One
// timed invocation in spanEvery is also kept as an individual span.
const (
	timeEvery   = 7
	spanEvery   = 585
	sampleEvery = timeEvery * spanEvery // handler invocations per kept span
)

// recorder is the sim.HandlerRegistrar that captures a package's handlers.
type recorder map[sim.EvKind]sim.Handler

func (r recorder) RegisterHandler(k sim.EvKind, h sim.Handler) { r[k] = h }

// span is one recorded interval, in nanoseconds since the repetition entered
// Run*. Parent is the ID of the enclosing span (0 for the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Fixed span IDs of the phase spans; sampled handler spans follow.
const (
	spanRep = 1 + iota
	spanSetup
	spanRun
	spanTeardown
	spanFirstHandler
)

// kindAgg is one event kind's dispatch count (exact) and handler host time
// (the timed invocations' total, scaled by timeEvery).
type kindAgg struct {
	Events uint64 `json:"events"`
	NS     int64  `json:"host_ns"`
}

// traceRun holds one traced repetition's spans and aggregates in memory.
type traceRun struct {
	base    time.Time // the repetition's entry into Run*
	kinds   map[sim.EvKind]*kindAgg
	spans   []span
	lastEnd int64 // end of the last timed handler, ns since base

	// Filled by finish.
	runNS, teardownNS int64
	counts            map[string]uint64
}

// interpose wraps every typed-event handler of the cluster's (sequential)
// engine with a timing wrapper.
func interpose(c *core.Cluster, base time.Time) *traceRun {
	reg, ok := c.Scheduler().(sim.HandlerRegistrar)
	if !ok {
		panic("bench: traced repetition needs the sequential engine's handler table")
	}
	captured := recorder{}
	kernel.RegisterEventHandlers(captured) // cascades to nic and link
	vswitch.RegisterEventHandlers(captured)

	tr := &traceRun{base: base, kinds: map[sim.EvKind]*kindAgg{}}
	for kind, h := range captured {
		layer, ok := layerOf[kind]
		if !ok {
			panic(fmt.Sprintf("bench: %v is registered by a model package but has no layer in layerOf", kind))
		}
		agg := &kindAgg{}
		tr.kinds[kind] = agg
		name := layer + "." + kind.String()
		reg.RegisterHandler(kind, func(now sim.Time, ev sim.Event) {
			agg.Events++
			if agg.Events%timeEvery != 0 {
				h(now, ev)
				return
			}
			start := int64(time.Since(tr.base))
			h(now, ev)
			end := int64(time.Since(tr.base))
			agg.NS += timeEvery * (end - start)
			tr.lastEnd = end
			if agg.Events%sampleEvery == 0 {
				tr.spans = append(tr.spans, span{ID: spanFirstHandler + len(tr.spans), Parent: spanRun, Name: name, Start: start, End: end})
			}
		})
	}
	return tr
}

// finish closes the phase spans and reads the deterministic counters off the
// stopped cluster. first is the first dispatched event, end the return of
// Run*.
func (tr *traceRun) finish(c *core.Cluster, first, end time.Time) {
	firstNS, endNS := int64(first.Sub(tr.base)), int64(end.Sub(tr.base))
	if tr.lastEnd < firstNS { // no typed event ran
		tr.lastEnd = firstNS
	}
	tr.runNS = endNS - firstNS
	tr.teardownNS = endNS - tr.lastEnd
	phases := []span{
		{ID: spanRep, Name: "bench.repetition", Start: 0, End: endNS},
		{ID: spanSetup, Parent: spanRep, Name: "core.setup", Start: 0, End: firstNS},
		{ID: spanRun, Parent: spanRep, Name: "core.run", Start: firstNS, End: endNS},
		{ID: spanTeardown, Parent: spanRun, Name: "core.teardown", Start: tr.lastEnd, End: endNS},
	}
	tr.spans = append(phases, tr.spans...)

	counts := map[string]uint64{}
	for _, m := range c.Machines {
		counts["kernel.syscalls"] += m.Stats.Syscalls
		counts["kernel.ctx_switches"] += m.Stats.CtxSwitches
		counts["kernel.interrupts"] += m.Stats.Interrupts
		counts["nic.tx_pkts"] += m.NIC().Stats.TxPackets
		ts := m.TCPStats()
		counts["tcp.segs_out"] += ts.SegsOut
		counts["tcp.retransmits"] += ts.Retransmits
		counts["tcp.timeouts"] += ts.Timeouts
	}
	counts["vswitch.drops"] = c.SwitchDrops()
	pool := c.PacketPoolStats()
	counts["packet.pool_gets"] = pool.Gets
	counts["packet.pool_releases"] = pool.Releases
	counts["packet.pool_slabs"] = pool.Slabs
	counts["sim.events"] = c.Events()
	tr.counts = counts
}

// layerAgg sums a layer's kinds.
func (tr *traceRun) layerAgg(layer string) kindAgg {
	var sum kindAgg
	for kind, agg := range tr.kinds {
		if layerOf[kind] == layer {
			sum.Events += agg.Events
			sum.NS += agg.NS
		}
	}
	return sum
}

// selfNS is the engine's own time: the run phase minus every handler and
// minus teardown — queue operations, dispatch, and the closure-lane events
// (cold paths the typed table does not see).
func (tr *traceRun) selfNS() int64 {
	self := tr.runNS - tr.teardownNS
	for _, agg := range tr.kinds {
		self -= agg.NS
	}
	return self
}

// traceFile is the schema of bench/out/trace-<workload>.json.
type traceFile struct {
	Schema   string             `json:"schema"`
	RunID    string             `json:"run_id"` // shared by every span in the file
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Sampling int                `json:"handler_span_sampling"` // 1 in N handler spans kept
	Kinds    map[string]kindAgg `json:"kinds"`
	Counts   map[string]uint64  `json:"counts"`
	Spans    []span             `json:"spans"`
}

// write stores the traced repetition under dir.
func (tr *traceRun) write(dir, workload string, seed uint64) (string, error) {
	out := traceFile{
		Schema:   "diablo/bench-trace/v1",
		RunID:    fmt.Sprintf("%s/seed-%d", workload, seed),
		Workload: workload,
		Seed:     seed,
		Sampling: sampleEvery,
		Kinds:    map[string]kindAgg{},
		Counts:   tr.counts,
		Spans:    tr.spans,
	}
	for kind, agg := range tr.kinds {
		out.Kinds[layerOf[kind]+"."+kind.String()] = *agg
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
