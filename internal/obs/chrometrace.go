package obs

// Chrome trace-event export. A Trace collects spans and instants keyed by
// (pid, tid) lanes — we map simulator partitions to pids and per-node
// activities (kernel, user threads, packets) to tids — and WriteJSON renders
// the Trace Event Format understood by chrome://tracing and Perfetto:
//
//	{"traceEvents":[{"ph":"X","ts":...,"dur":...,"pid":...,"tid":...,...},...]}
//
// Timestamps in the format are microseconds; simulated picoseconds convert
// exactly via sim's Microseconds helpers. Events may be recorded from any
// worker goroutine (the model runs partitions concurrently), so the buffer
// is mutex-guarded and WriteJSON canonically sorts before encoding — the
// file content is deterministic for a deterministic model, but unlike the
// registry's series it is not part of the byte-identical worker-invariance
// contract (cross-partition record order never influences the output because
// of the sort, but the ring buffer's drop set under overflow can differ).

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"

	"diablo/internal/sim"
)

// DefaultTraceCapacity bounds a Trace's in-memory event buffer. At roughly
// 100 bytes per event this caps the buffer near 25 MB.
const DefaultTraceCapacity = 1 << 18

// TraceEvent is one Chrome trace event. Ph "X" is a complete span (Dur set),
// "i" an instant (Scope "t" thread-local, "g" global — Perfetto draws global
// instants as full-height vertical lines, which is how fault edges render),
// and "M" metadata (process_name / thread_name).
type TraceEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   float64           `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// traceFile is the on-disk shape: the JSON Object Format variant of the
// Trace Event Format.
type traceFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
}

// rawEvent is the pre-lane-mapping form held in the buffer: tids are
// strings ("node3 kernel") until WriteJSON assigns stable integers.
type rawEvent struct {
	name  string
	cat   string
	ph    string
	at    sim.Time
	dur   sim.Duration
	pid   int
	tid   string
	scope string
	args  map[string]string
}

// Trace is a bounded, concurrency-safe collector of trace events.
type Trace struct {
	mu       sync.Mutex
	capacity int
	events   []rawEvent
	globals  int // global instants in events, outside the capacity
	dropped  uint64
	procs    map[int]string
}

// NewTrace creates a trace buffer holding at most capacity events
// (DefaultTraceCapacity if capacity <= 0), global instants aside. When full,
// further events are dropped and counted; Dropped reports the loss so a
// truncated trace is never mistaken for a complete one.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{capacity: capacity, procs: make(map[int]string)}
}

// SetProcessName labels a pid lane (we use one pid per engine partition).
func (t *Trace) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procs[pid] = name
	t.mu.Unlock()
}

func (t *Trace) add(ev rawEvent) {
	t.mu.Lock()
	if len(t.events)-t.globals >= t.capacity {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Span records a complete duration event on (pid, tid). Nil-safe.
func (t *Trace) Span(pid int, tid, cat, name string, start sim.Time, dur sim.Duration) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.add(rawEvent{name: name, cat: cat, ph: "X", at: start, dur: dur, pid: pid, tid: tid})
}

// Instant records a thread-scoped instant marker on (pid, tid). Nil-safe.
func (t *Trace) Instant(pid int, tid, cat, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.add(rawEvent{name: name, cat: cat, ph: "i", at: at, pid: pid, tid: tid, scope: "t"})
}

// GlobalInstant records a global instant — Perfetto renders it as a vertical
// line across every lane, which is how fault edges are marked. A fault plan
// has few edges, so global instants are kept outside the capacity: a full
// buffer still takes them, and they never count as dropped. Nil-safe.
func (t *Trace) GlobalInstant(cat, name string, at sim.Time, args map[string]string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, rawEvent{name: name, cat: cat, ph: "i", at: at, pid: 0, tid: "global", scope: "g", args: args})
	t.globals++
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns how many events were discarded because the buffer was full.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the canonically ordered events exactly as WriteJSON encodes
// them (metadata first, then time-ordered payload events).
func (t *Trace) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.render()
}

// render maps string tids to stable small integers and produces the final,
// canonically sorted event list. Caller holds t.mu.
func (t *Trace) render() []TraceEvent {
	// Assign tids deterministically: per pid, sort the set of tid keys so
	// lane numbering never depends on record order across workers.
	type pidTid struct {
		pid int
		tid string
	}
	keys := make(map[pidTid]bool)
	for _, ev := range t.events {
		keys[pidTid{ev.pid, ev.tid}] = true
	}
	byPid := make(map[int][]string)
	for k := range keys {
		byPid[k.pid] = append(byPid[k.pid], k.tid)
	}
	tidOf := make(map[pidTid]int)
	pids := slices.Sorted(maps.Keys(byPid))
	for _, pid := range pids {
		names := byPid[pid]
		sort.Strings(names)
		for i, name := range names {
			tidOf[pidTid{pid, name}] = i
		}
	}

	out := make([]TraceEvent, 0, len(t.events)+len(t.procs)+len(keys))

	// Metadata events first: process names, then thread names, in lane order.
	for _, pid := range pids {
		if name, ok := t.procs[pid]; ok {
			out = append(out, TraceEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]string{"name": name},
			})
		}
		for i, tidKey := range byPid[pid] {
			out = append(out, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i,
				Args: map[string]string{"name": tidKey},
			})
		}
	}

	payload := make([]TraceEvent, 0, len(t.events))
	for _, ev := range t.events {
		payload = append(payload, TraceEvent{
			Name:  ev.name,
			Cat:   ev.cat,
			Ph:    ev.ph,
			Ts:    ev.at.Microseconds(),
			Dur:   ev.dur.Microseconds(),
			Pid:   ev.pid,
			Tid:   tidOf[pidTid{ev.pid, ev.tid}],
			Scope: ev.scope,
			Args:  ev.args,
		})
	}
	// Chronological order, with a full tie-break tuple so the encoding is a
	// pure function of the event set (not of cross-worker record order).
	sort.SliceStable(payload, func(i, j int) bool {
		a, b := payload[i], payload[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Ph != b.Ph {
			return a.Ph < b.Ph
		}
		return a.Dur < b.Dur
	})
	return append(out, payload...)
}

// WriteJSON encodes the trace in Chrome's JSON object format. The output is
// always valid JSON with payload events in chronological order (fuzzed in
// this package).
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := t.render()
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		// Surface truncation inside the trace itself so a viewer sees it.
		events = append(events, TraceEvent{
			Name: "trace_truncated", Ph: "M", Pid: 0,
			Args: map[string]string{"dropped_events": fmt.Sprintf("%d", dropped)},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events})
}
