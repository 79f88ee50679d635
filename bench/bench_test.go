package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func toyOpts(t *testing.T) runOpts {
	return runOpts{seed: 7, reps: 2, probeBudget: time.Millisecond, outDir: t.TempDir()}
}

func requireMetrics(t *testing.T, r report, defs []metricDef) {
	t.Helper()
	for _, def := range defs {
		st, ok := r.Metrics[def.name]
		if !ok || st.N == 0 {
			t.Errorf("%s: metric %s missing", r.Workload, def.name)
			continue
		}
		if math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
			t.Errorf("%s: metric %s = %v", r.Workload, def.name, st.Median)
		}
		if st.Unit != def.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, def.name, st.Unit, def.unit)
		}
	}
}

// Every workload builder, shrunk to a few nodes and requests, must produce
// every named metric in both modes, pass its own checks, and leave a span
// file whose spans all hang off the repetition.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, full := range workloads() {
		w := full.toy()
		t.Run(w.name, func(t *testing.T) {
			o := toyOpts(t)
			timed, err := runTimed(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !timed.Correct || timed.Failed != 0 || timed.Attempted == 0 {
				t.Fatalf("timed run: correct=%v failed=%d attempted=%d %v", timed.Correct, timed.Failed, timed.Attempted, timed.Failures)
			}
			requireMetrics(t, timed, endToEnd)
			requireMetrics(t, timed, informational)
			for _, def := range endToEnd {
				// A toy set-up is tens of microseconds of CPU, at the
				// resolution of getrusage: it may legitimately read 0.
				if v := timed.Metrics[def.name].Median; v < 0 || v == 0 && def.name != "setup_s" {
					t.Errorf("end-to-end metric %s = %v, want > 0", def.name, v)
				}
			}
			if w.deterministic && timed.DistinctDigests != 1 {
				t.Errorf("distinct_digests = %d, want 1", timed.DistinctDigests)
			}
			if _, err := timed.resultLine(); err != nil {
				t.Error(err)
			}

			traced, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			// Correct covers the interposition check too: traced and
			// untraced repetitions must agree on the digest.
			if !traced.Correct {
				t.Fatalf("traced run incorrect: %v", traced.Failures)
			}
			requireMetrics(t, traced, perLayer)
			if got := traced.Metrics["sim.quanta"].Median; (got > 0) != w.partitioned() {
				t.Errorf("sim.quanta = %v on a workload with partitioned=%v", got, w.partitioned())
			}
			if _, err := traced.resultLine(); err != nil {
				t.Error(err)
			}

			data, err := os.ReadFile(traced.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) < spanTeardown || tf.Spans[0].Name != "bench.repetition" {
				t.Fatalf("span file lacks the phase spans: %+v", tf.Spans)
			}
			for _, s := range tf.Spans[1:] {
				if s.Parent < spanRep || s.Parent >= s.ID || s.End < s.Start {
					t.Errorf("span %+v: bad parent or interval", s)
				}
			}
		})
	}
}

// A repetition whose digest differs from the recorded one fails, and takes
// all its requests with it.
func TestCorruptedGoldenFailsRepetition(t *testing.T) {
	w, _ := findWorkload("mc-udp-496-seq")
	o := toyOpts(t)
	o.reference = "fnv64a:0000000000000000"
	r, err := runTimed(w.toy(), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Fatalf("correct=%v failed=%d attempted=%d, want every request failed", r.Correct, r.Failed, r.Attempted)
	}
	if len(r.Failures) != o.reps || !strings.Contains(r.Failures[0], "digest") {
		t.Fatalf("failures = %v", r.Failures)
	}
}

// Wrapping the typed-event handlers must not change what is simulated.
func TestInterpositionLeavesDigestUnchanged(t *testing.T) {
	for _, full := range workloads() {
		w := full.toy()
		if !w.deterministic {
			continue
		}
		plain := measure(w, 3, true, false)
		traced := measure(w, 3, true, true)
		if plain.failure != "" || traced.failure != "" {
			t.Fatalf("%s: %q / %q", w.name, plain.failure, traced.failure)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: digest %s untraced, %s traced", w.name, plain.digest, traced.digest)
		}
		var handled uint64
		for _, agg := range traced.trace.kinds {
			handled += agg.Events
		}
		if handled == 0 || handled > traced.trace.counts["sim.events"] {
			t.Errorf("%s: wrappers saw %d events of %d dispatched", w.name, handled, traced.trace.counts["sim.events"])
		}
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in report.go
// and workloads.go are what the harness prints. They must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	ws := workloads()
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, def := range want {
			if got[i] != (metric{def.name, def.unit, def.better, def.bound}) {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, got[i], def)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(cpu, spread float64, failed uint64, syscalls float64) fileReport {
		metrics := map[string]stat{}
		for _, def := range endToEnd {
			metrics[def.name] = stat{Unit: def.unit, N: 5, Median: 1, Min: 1, Max: 1, Q1: 1, Q3: 1}
		}
		metrics["cpu_s_per_sim_s"] = stat{Unit: "s/s", N: 5, Median: cpu, Min: cpu, Max: cpu, Q1: cpu * (1 - spread/2), Q3: cpu * (1 + spread/2)}
		counts := map[string]stat{}
		for _, def := range perLayer {
			counts[def.name] = stat{Unit: def.unit, N: 1, Median: 5}
		}
		counts["kernel.syscalls"] = stat{Unit: "count", N: 1, Median: syscalls}
		return fileReport{Schema: reportSchema, Reports: []report{
			{Workload: "mc-udp-496-seq", Correct: true, Attempted: 100, Failed: failed, Metrics: metrics},
			{Workload: "mc-udp-496-seq", Traced: true, Correct: true, Metrics: counts},
		}}
	}
	dir := t.TempDir()
	write := func(name string, fr fileReport) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(10, 0.01, 0, 5))
	bound := endToEnd[0].bound
	for _, tc := range []struct {
		name      string
		other     fileReport
		wantWorse bool
		wantText  string
	}{
		{"same", mk(10, 0.01, 0, 5), false, "within"},
		{"inside the bound", mk(10*(1+bound/2), 0.01, 0, 5), false, "within"},
		{"beyond the bound", mk(10*(1+2*bound), 0.01, 0, 5), true, "worse"},
		{"faster", mk(5, 0.01, 0, 5), false, "within"},
		{"too noisy to tell", mk(10*(1+2*bound), 2*bound, 0, 5), false, "unresolved"},
		{"more failures", mk(10, 0.01, 3, 5), true, "failed share rose"},
		{"a count moved", mk(10, 0.01, 0, 6), true, "count kernel.syscalls differs"},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, base, write("other.json", tc.other))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if worse != tc.wantWorse || !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: worse=%v, want %v with %q in:\n%s", tc.name, worse, tc.wantWorse, tc.wantText, out.String())
		}
	}
}
