// Command diablo reproduces the paper's tables and figures.
//
// Usage:
//
//	diablo list
//	diablo run <id> [-requests N] [-iterations N] [-seed S] [-partitions W] [-faults SPEC]
//	                [-trace-out FILE] [-manifest-out FILE]
//	diablo all  [-requests N] [-iterations N]
//	diablo validate FILE...
//
// IDs follow the paper: fig2, table1, table2, proto, fig6a, fig6b, fig8,
// fig9, fig10, fig11, fig12, fig13, fig14, fig15, perf — plus the
// graceful-degradation experiments faultmc and faultincast, whose fault
// schedule can be overridden with -faults (see fault.ParseSpec for the
// grammar). Reduced request and iteration counts are the default (see
// DESIGN.md); raise them toward the paper's 30,000 requests / 40 iterations
// for full-scale runs. Each figure is a campaign preset (`campaign run
// -preset figN` runs it with a report, and over a list of seeds in a spec).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"diablo"
	"diablo/internal/campaign"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range diablo.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case "run":
		if len(os.Args) < 3 {
			usage()
			os.Exit(2)
		}
		id := os.Args[2]
		opts := parseOpts(os.Args[3:])
		if err := runOne(id, opts); err != nil {
			fmt.Fprintln(os.Stderr, "diablo:", err)
			os.Exit(1)
		}
	case "all":
		opts := parseOpts(os.Args[2:])
		for _, e := range diablo.Experiments() {
			if err := runOne(e.ID, opts); err != nil {
				fmt.Fprintln(os.Stderr, "diablo:", e.ID, err)
				os.Exit(1)
			}
		}
	case "validate":
		// Schema-aware artifact validation (traces, manifests, campaign
		// specs/reports/diffs) — the CI smoke on uploaded artifacts.
		if len(os.Args) < 3 {
			usage()
			os.Exit(2)
		}
		for _, path := range os.Args[2:] {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "diablo:", err)
				os.Exit(1)
			}
			kind, err := campaign.ValidateArtifact(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "diablo: %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("ok %-16s %s\n", kind, path)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func runOne(id string, opts diablo.ExperimentOptions) error {
	start := time.Now()
	out, err := diablo.RunExperiment(id, opts)
	if err != nil {
		return err
	}
	for _, e := range diablo.Experiments() {
		if e.ID == id {
			fmt.Printf("==== %s — %s\n", e.ID, e.Title)
		}
	}
	fmt.Print(out.String())
	fmt.Printf("# wall time: %v\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func parseOpts(args []string) diablo.ExperimentOptions {
	fs := flag.NewFlagSet("diablo", flag.ExitOnError)
	requests := fs.Int("requests", 0, "requests per memcached client (0 = reduced default; paper uses 30000)")
	iterations := fs.Int("iterations", 0, "incast iterations per point (0 = default; paper uses 40)")
	seed := fs.Uint64("seed", 0, "master seed (0 = default)")
	partitions := fs.Int("partitions", 0, "workers for the memcached runs of perf and faultmc (0 = sequential, n = partitioned engine on n workers; results are identical at any value); the figures run their cells in parallel instead")
	faults := fs.String("faults", "", `fault schedule for faultmc/faultincast, e.g. "tordegrade rack=0 at=30ms dur=200ms loss=0.5" (empty = the experiment's built-in schedule)`)
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON of the observed run (perf/faultmc/faultincast; open in ui.perfetto.dev)")
	manifestOut := fs.String("manifest-out", "", "write a run-manifest JSON (schema diablo/run-manifest/v1) of the observed run")
	_ = fs.Parse(args)

	var opts diablo.ExperimentOptions
	opts.Requests = *requests
	opts.Iterations = *iterations
	opts.Seed = *seed
	opts.Partitions = *partitions
	opts.Faults = *faults
	opts.TraceOut = *traceOut
	opts.ManifestOut = *manifestOut
	return opts
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  diablo list
  diablo run <id> [-requests N] [-iterations N] [-seed S] [-partitions W] [-faults SPEC]
             [-trace-out FILE] [-manifest-out FILE]
  diablo all [flags]
  diablo validate FILE...`)
}
