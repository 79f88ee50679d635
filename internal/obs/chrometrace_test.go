package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"diablo/internal/sim"
)

func decodeTrace(t *testing.T, tr *Trace) traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return f
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTrace(0)
	tr.SetProcessName(0, "partition 0 (rack 0)")
	tr.SetProcessName(1, "partition 1 (fabric)")
	tr.Span(0, "node0 kernel", "kernel", "softirq", sim.Time(2*sim.Microsecond), 3*sim.Microsecond)
	tr.Span(1, "switch", "switch", "forward", sim.Time(sim.Microsecond), sim.Microsecond)
	tr.Instant(0, "node0 kernel", "kernel", "drop", sim.Time(4*sim.Microsecond))
	tr.GlobalInstant("fault", "rack0 uplink down", sim.Time(3*sim.Microsecond), map[string]string{"detail": "flap"})

	f := decodeTrace(t, tr)
	var meta, spans, instants, globals int
	lanes := map[string]bool{}
	lastTs := -1.0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name == "thread_name" {
				lanes[ev.Args["name"]] = true
			}
			continue
		case "X":
			spans++
		case "i":
			instants++
			if ev.Scope == "g" {
				globals++
			}
		}
		if ev.Ts < lastTs {
			t.Fatalf("payload events out of order: %v after %v", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
	}
	if meta < 2 {
		t.Fatalf("missing metadata events: %d", meta)
	}
	if spans != 2 || instants != 2 || globals != 1 {
		t.Fatalf("event mix wrong: spans=%d instants=%d globals=%d", spans, instants, globals)
	}
	// Lanes are named by their tid key.
	for _, lane := range []string{"node0 kernel", "switch", "global"} {
		if !lanes[lane] {
			t.Fatalf("lane %q unnamed: %v", lane, lanes)
		}
	}
	// Times are microseconds.
	found := false
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Name == "softirq" {
			found = true
			if ev.Ts != 2 || ev.Dur != 3 {
				t.Fatalf("softirq span ts=%v dur=%v, want 2/3 µs", ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatal("softirq span missing")
	}
}

func TestTraceLaneNamesDeterministic(t *testing.T) {
	// Two traces recording the same events in different orders must encode
	// identically (tids assigned from sorted keys, payload sorted).
	build := func(reverse bool) string {
		tr := NewTrace(0)
		events := []struct {
			tid  string
			name string
			at   sim.Time
		}{
			{"b-lane", "one", sim.Time(sim.Microsecond)},
			{"a-lane", "two", sim.Time(2 * sim.Microsecond)},
			{"c-lane", "three", sim.Time(3 * sim.Microsecond)},
		}
		if reverse {
			for i := len(events) - 1; i >= 0; i-- {
				e := events[i]
				tr.Span(0, e.tid, "t", e.name, e.at, sim.Microsecond)
			}
		} else {
			for _, e := range events {
				tr.Span(0, e.tid, "t", e.name, e.at, sim.Microsecond)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := build(false), build(true); a != b {
		t.Fatalf("record order leaked into encoding:\n%s\nvs\n%s", a, b)
	}
}

func TestTraceCapacityAndDropMarker(t *testing.T) {
	tr := NewTrace(2)
	for i := 0; i < 5; i++ {
		tr.Span(0, "t", "c", "ev", sim.Time(i)*sim.Time(sim.Microsecond), sim.Microsecond)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len()=%d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped()=%d, want 3", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace_truncated") {
		t.Fatalf("truncation marker missing:\n%s", buf.String())
	}
}

// TestTraceGlobalInstantOutsideCapacity: a full buffer still takes a global
// instant (a fault edge), and neither Dropped nor the room left for other
// events changes.
func TestTraceGlobalInstantOutsideCapacity(t *testing.T) {
	tr := NewTrace(2)
	tr.GlobalInstant("fault", "early", 0, nil)
	for i := 0; i < 3; i++ {
		tr.Span(0, "t", "c", "ev", sim.Time(i)*sim.Time(sim.Microsecond), sim.Microsecond)
	}
	if tr.Dropped() != 1 {
		t.Fatalf("Dropped()=%d after 3 spans into capacity 2, want 1", tr.Dropped())
	}
	tr.GlobalInstant("fault", "late", sim.Time(9*sim.Microsecond), map[string]string{"detail": "d"})
	if tr.Dropped() != 1 || tr.Len() != 4 {
		t.Fatalf("full trace: Dropped()=%d Len()=%d after a global instant, want 1 and 4", tr.Dropped(), tr.Len())
	}
	var globals []string
	for _, ev := range decodeTrace(t, tr).TraceEvents {
		if ev.Scope == "g" {
			globals = append(globals, ev.Name)
		}
	}
	if !slices.Equal(globals, []string{"early", "late"}) {
		t.Fatalf("global instants %v, want [early late]", globals)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Span(0, "t", "c", "n", 0, 0)
	tr.Instant(0, "t", "c", "n", 0)
	tr.GlobalInstant("c", "n", 0, nil)
	tr.SetProcessName(0, "p")
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace must read as empty")
	}
}

func TestTraceNegativeDurationClamped(t *testing.T) {
	tr := NewTrace(0)
	tr.Span(0, "t", "c", "n", sim.Time(sim.Microsecond), -5)
	f := decodeTrace(t, tr)
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Dur < 0 {
			t.Fatalf("negative duration encoded: %+v", ev)
		}
	}
}
