// Command bench is the repository's benchmark: host CPU-seconds per
// simulated second on four whole-model workloads, with per-layer attribution
// taken from outside the program. BENCHMARK.json at the root of the
// repository is its contract and README.md beside this file its manual.
//
// Usage:
//
//	go run ./bench                      every workload, each in fresh child processes
//	go run ./bench -workloads a,b -json OUT
//	go run ./bench -workload W -seed N -seconds S -trace 0|1    one run (the driver's form)
//	go run ./bench -probes              the isolated layer probes, ~1 s each
//	go run ./bench -compare A.json B.json
//	go run ./bench -bless               re-record bench/golden.json (seed 1)
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// outDir receives span files and the children's reports; bench/.gitignore
// covers it. Paths are relative to the repository root, where `go run
// ./bench` runs.
const outDir = "bench/out"

const goldenPath = "bench/golden.json"

// goldenFile records the digests of the deterministic workloads at one seed.
// A null digest marks a workload that does not replay (checked by predicates
// only).
type goldenFile struct {
	Seed    uint64             `json:"seed"`
	Digests map[string]*string `json:"digests"`
}

//go:embed golden.json
var goldenJSON []byte

// reference returns the digest the workload must produce at seed, or "" when
// none is recorded (another seed, or a workload that does not replay).
func reference(w workload, seed uint64) (string, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("%s: %w", goldenPath, err)
	}
	if d := g.Digests[w.name]; seed == g.Seed && d != nil {
		return *d, nil
	}
	return "", nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print the result line")
		seed         = flag.Uint64("seed", 1, "master seed of the workload")
		seconds      = flag.Float64("seconds", 20, "seconds one run measures for")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		reps         = flag.Int("reps", 0, "measured repetitions per run (0 = as many as fit in -seconds)")
		names        = flag.String("workloads", "", "comma-separated workloads to run (default: all)")
		jsonOut      = flag.String("json", "", "write the reports to this file")
		runProbesF   = flag.Bool("probes", false, "run only the isolated layer probes")
		compare      = flag.Bool("compare", false, "compare two -json files: bench -compare A.json B.json")
		bless        = flag.Bool("bless", false, "record the seed-1 digests in "+goldenPath)
	)
	flag.Parse()

	o := runOpts{
		seed:        *seed,
		budget:      time.Duration(*seconds * float64(time.Second)),
		reps:        *reps,
		probeBudget: 250 * time.Millisecond,
		outDir:      outDir,
	}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *bless:
		err = blessGoldens()
	case *runProbesF:
		err = printProbes()
	case *workloadName != "":
		err = runOne(*workloadName, o, *trace != 0, *jsonOut)
	default:
		err = runAll(*names, o, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's form: one workload, one mode, in this process. The
// result line is the last line of standard output; an incorrect run still
// prints it (with correct=false) and exits 0, as the contract asks.
func runOne(name string, o runOpts, traced bool, jsonOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var err error
	if o.reference, err = reference(w, o.seed); err != nil {
		return err
	}
	var r report
	if traced {
		if r, err = runTraced(w, o); err != nil {
			return err
		}
	} else if r, err = runTimed(w, o); err != nil {
		return err
	}
	line, err := r.resultLine()
	if err != nil {
		return err
	}
	if jsonOut != "" {
		if err := writeReports(jsonOut, []report{r}); err != nil {
			return err
		}
	}
	r.print(os.Stdout)
	fmt.Println(line)
	return nil
}

// runAll runs each selected workload twice — tracing off, then traced — each
// run in a fresh child process, so peak RSS and heap state belong to that
// run alone and only the simulator's own threads are alive while it runs.
func runAll(names string, o runOpts, jsonOut string) error {
	selected := workloads()
	if names != "" {
		selected = nil
		for _, name := range strings.Split(names, ",") {
			w, ok := findWorkload(name)
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var reports []report
	for _, w := range selected {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(o.outDir, fmt.Sprintf("report-%s-trace%d.json", w.name, trace))
			child := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.budget.Seconds(), 'g', -1, 64),
				"-reps", strconv.Itoa(o.reps),
				"-trace", strconv.Itoa(trace),
				"-json", part)
			child.Stdout, child.Stderr = os.Stdout, os.Stderr
			if err := child.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			fr, err := readReports(part)
			if err != nil {
				return err
			}
			reports = append(reports, fr.Reports...)
		}
	}
	if jsonOut != "" {
		if err := writeReports(jsonOut, reports); err != nil {
			return err
		}
	}
	for _, r := range reports {
		if !r.Correct {
			return fmt.Errorf("%s: incorrect run: %s", r.Workload, strings.Join(r.Failures, "; "))
		}
	}
	return nil
}

func printProbes() error {
	results, err := runProbes(time.Second)
	if err != nil {
		return err
	}
	for _, p := range probes() {
		fmt.Printf("%-20s %10.1f ns\n", p.name, results[p.name])
	}
	return nil
}

// blessGoldens runs every workload once at the golden seed and rewrites
// bench/golden.json. A workload that does not replay is recorded as null.
func blessGoldens() error {
	g := goldenFile{Seed: 1, Digests: map[string]*string{}}
	for _, w := range workloads() {
		g.Digests[w.name] = nil
		if !w.deterministic {
			continue
		}
		s := measure(w, g.Seed, false, false)
		if s.failure != "" {
			return fmt.Errorf("%s: %s", w.name, s.failure)
		}
		g.Digests[w.name] = &s.digest
		fmt.Printf("%-18s %s\n", w.name, s.digest)
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
