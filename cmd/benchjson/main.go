// Command benchjson runs the §5 engine-comparison probe and emits the
// result as machine-readable JSON (BENCH_results.json), so the repo carries
// a performance trajectory alongside its correctness gates. With -baseline
// it also acts as a regression gate: if sequential-engine throughput falls
// more than the tolerance below the committed baseline, it exits nonzero.
//
// Usage:
//
//	go run ./cmd/benchjson -o BENCH_results.json
//	go run ./cmd/benchjson -o BENCH_results.json -baseline bench_baseline.json
//
// The baseline file uses the same schema as the output, so refreshing it is
// just copying a BENCH_results.json produced on a reference machine (and
// sandbagging the throughput numbers enough to absorb CI hardware variance).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"diablo/internal/core"
)

// benchReport is the schema of BENCH_results.json and bench_baseline.json.
// Throughput fields are absolute for the machine that produced them; the
// regression gate compares ratios, not absolutes, which is why the committed
// baseline should be a conservative (sandbagged) reference value.
type benchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// ParallelMeaningful is false on a single-CPU runner, where the parallel
	// engine's throughput (and any speedup ratio derived from it) measures
	// context-switch overhead, not scaling. Readers — and the gates below —
	// must not treat speedup_x as a regression signal when this is false.
	ParallelMeaningful bool             `json:"parallel_meaningful"`
	EngineComparison   engineComparison `json:"engine_comparison"`
}

type engineComparison struct {
	Partitions         int     `json:"partitions"`
	EventsPerPartition int     `json:"events_per_partition"`
	SeqEventsPerSec    float64 `json:"seq_events_per_sec"`
	ParEventsPerSec    float64 `json:"par_events_per_sec"`
	SpeedupX           float64 `json:"speedup_x"`
	SeqAllocsPerEvent  float64 `json:"seq_allocs_per_event"`
	ParAllocsPerEvent  float64 `json:"par_allocs_per_event"`

	// Scheduler-API-v2 fields: the capturing-closure idiom the hot paths
	// used pre-v2 versus the typed-record lane that replaced it, on the
	// sequential engine. Zero in pre-v2 baselines, which the gates treat as
	// "not measured". typed_speedup_x is typed/capture.
	CaptureEventsPerSec   float64 `json:"capture_events_per_sec,omitempty"`
	CaptureAllocsPerEvent float64 `json:"capture_allocs_per_event,omitempty"`
	TypedEventsPerSec     float64 `json:"typed_events_per_sec,omitempty"`
	TypedAllocsPerEvent   float64 `json:"typed_allocs_per_event,omitempty"`
	TypedSpeedupX         float64 `json:"typed_speedup_x,omitempty"`
}

// benchCompare is the before/after artifact written next to the report when
// a baseline is supplied: the committed reference, the fresh measurement,
// and the ratios the gates judged. CI uploads it so a regression (or a win)
// is inspectable without rerunning the probe.
type benchCompare struct {
	Schema        string           `json:"schema"`
	BaselinePath  string           `json:"baseline_path"`
	Baseline      engineComparison `json:"baseline"`
	Current       engineComparison `json:"current"`
	SeqThroughput float64          `json:"seq_throughput_ratio"` // current/baseline
	SeqAllocDelta float64          `json:"seq_allocs_per_event_delta"`
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output path for the JSON report")
	baseline := flag.String("baseline", "", "baseline JSON to gate against (empty = no gate)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional regression of seq throughput vs baseline")
	allocSlack := flag.Float64("alloc-slack", 0.05, "allowed absolute increase of seq allocs/event over baseline")
	compare := flag.String("compare", "BENCH_compare.json", "before/after comparison artifact (with -baseline; empty = skip)")
	partitions := flag.Int("partitions", 8, "partitions in the engine-comparison model")
	events := flag.Int("events", 100_000, "events per partition")
	warmup := flag.Bool("warmup", true, "run one unmeasured warm-up pass first")
	flag.Parse()

	if *warmup {
		// One throwaway pass so the measured run sees warmed allocator
		// spans and a grown heap, mirroring what `go test -bench` does
		// across b.N iterations.
		core.EngineComparisonMeasured(*partitions, *events)
	}
	st := core.EngineComparisonMeasured(*partitions, *events)

	rep := benchReport{
		Schema:             "diablo-bench/v1",
		GoVersion:          runtime.Version(),
		NumCPU:             runtime.GOMAXPROCS(0),
		ParallelMeaningful: runtime.GOMAXPROCS(0) > 1,
		EngineComparison: engineComparison{
			Partitions:         *partitions,
			EventsPerPartition: *events,
			SeqEventsPerSec:    st.SeqEventsPerSec,
			ParEventsPerSec:    st.ParEventsPerSec,
			SpeedupX:           st.Speedup(),
			SeqAllocsPerEvent:  st.SeqAllocsPerEvent,
			ParAllocsPerEvent:  st.ParAllocsPerEvent,

			CaptureEventsPerSec:   st.CaptureEventsPerSec,
			CaptureAllocsPerEvent: st.CaptureAllocsPerEvent,
			TypedEventsPerSec:     st.TypedEventsPerSec,
			TypedAllocsPerEvent:   st.TypedAllocsPerEvent,
			TypedSpeedupX:         st.TypedSpeedup(),
		},
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("engine comparison (%d partitions x %d events): seq %.2fM ev/s (%.2f allocs/ev), capture %.2fM ev/s (%.2f allocs/ev), typed %.2fM ev/s (%.2f allocs/ev, %.2fx vs capture), par %.2fM ev/s (%.2f allocs/ev, %.2fx)\n",
		*partitions, *events, st.SeqEventsPerSec/1e6, st.SeqAllocsPerEvent,
		st.CaptureEventsPerSec/1e6, st.CaptureAllocsPerEvent,
		st.TypedEventsPerSec/1e6, st.TypedAllocsPerEvent, st.TypedSpeedup(),
		st.ParEventsPerSec/1e6, st.ParAllocsPerEvent, st.Speedup())
	fmt.Printf("wrote %s\n", *out)

	if *baseline == "" {
		return
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fatalf("load baseline: %v", err)
	}

	if *compare != "" {
		cmp := benchCompare{
			Schema:        "diablo-bench-compare/v1",
			BaselinePath:  *baseline,
			Baseline:      base.EngineComparison,
			Current:       rep.EngineComparison,
			SeqThroughput: st.SeqEventsPerSec / base.EngineComparison.SeqEventsPerSec,
			SeqAllocDelta: st.SeqAllocsPerEvent - base.EngineComparison.SeqAllocsPerEvent,
		}
		data, err := json.MarshalIndent(cmp, "", "  ")
		if err != nil {
			fatalf("marshal comparison: %v", err)
		}
		if err := os.WriteFile(*compare, append(data, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *compare, err)
		}
		fmt.Printf("wrote %s\n", *compare)
	}

	floor := base.EngineComparison.SeqEventsPerSec * (1 - *tolerance)
	if st.SeqEventsPerSec < floor {
		fatalf("REGRESSION: seq throughput %.2fM ev/s is below %.0f%% of baseline %.2fM ev/s (floor %.2fM)",
			st.SeqEventsPerSec/1e6, (1-*tolerance)*100,
			base.EngineComparison.SeqEventsPerSec/1e6, floor/1e6)
	}
	fmt.Printf("gate: seq %.2fM ev/s >= floor %.2fM ev/s (baseline %.2fM, tolerance %.0f%%) — ok\n",
		st.SeqEventsPerSec/1e6, floor/1e6,
		base.EngineComparison.SeqEventsPerSec/1e6, *tolerance*100)

	// Allocation gate: allocs/event is noisy only through GC-triggered
	// incidentals, so an absolute slack (not a ratio — the reference value
	// is near zero) catches a closure creeping back onto a hot path.
	ceil := base.EngineComparison.SeqAllocsPerEvent + *allocSlack
	if st.SeqAllocsPerEvent > ceil {
		fatalf("REGRESSION: seq allocs/event %.4f exceeds baseline %.4f + slack %.2f",
			st.SeqAllocsPerEvent, base.EngineComparison.SeqAllocsPerEvent, *allocSlack)
	}
	fmt.Printf("gate: seq %.4f allocs/ev <= baseline %.4f + slack %.2f — ok\n",
		st.SeqAllocsPerEvent, base.EngineComparison.SeqAllocsPerEvent, *allocSlack)
	if base.EngineComparison.TypedAllocsPerEvent > 0 || base.EngineComparison.TypedEventsPerSec > 0 {
		tceil := base.EngineComparison.TypedAllocsPerEvent + *allocSlack
		if st.TypedAllocsPerEvent > tceil {
			fatalf("REGRESSION: typed-lane allocs/event %.4f exceeds baseline %.4f + slack %.2f",
				st.TypedAllocsPerEvent, base.EngineComparison.TypedAllocsPerEvent, *allocSlack)
		}
		fmt.Printf("gate: typed %.4f allocs/ev <= baseline %.4f + slack %.2f — ok\n",
			st.TypedAllocsPerEvent, base.EngineComparison.TypedAllocsPerEvent, *allocSlack)
	}
}

func loadBaseline(path string) (benchReport, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.EngineComparison.SeqEventsPerSec <= 0 {
		return rep, fmt.Errorf("%s: missing or non-positive engine_comparison.seq_events_per_sec", path)
	}
	return rep, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
