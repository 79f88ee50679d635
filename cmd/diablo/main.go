// Command diablo reproduces the paper's tables and figures.
//
// Usage:
//
//	diablo list
//	diablo run <id> [-requests N] [-iterations N] [-seed S]
//	diablo all  [-requests N] [-iterations N] [-seed S]
//	diablo validate FILE...
//
// IDs follow the paper: fig2, table1, table2, proto, fig6a, fig6b, fig8,
// fig9, fig10, fig11, fig12, fig13, fig14, fig15, perf — plus the
// graceful-degradation experiments faultmc and faultincast. Reduced request
// and iteration counts are the default (see DESIGN.md); raise them toward
// the paper's 30,000 requests / 40 iterations for full-scale runs. Each
// figure and fault experiment is a campaign preset (`campaign run -preset
// figN` runs it with a report, and over a list of seeds in a spec). An
// observed single run, faulted or not, is `campaign replay -trace-out` of a
// one-cell spec (testdata/runs holds the documented ones).
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

// parseOpts parses the flags of run and all, exiting 2 on a bad one as on a
// leftover argument.
func parseOpts(args []string) diablo.ExperimentOptions {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diablo:", err)
		os.Exit(2)
	}
	return opts
}

// parseFlags parses args into options; an argument left after the flags is
// an error naming it, never ignored.
func parseFlags(args []string) (diablo.ExperimentOptions, error) {
	var opts diablo.ExperimentOptions
	fs := flag.NewFlagSet("diablo", flag.ExitOnError)
	fs.IntVar(&opts.Requests, "requests", 0, "requests per memcached client (0 = reduced default; paper uses 30000)")
	fs.IntVar(&opts.Iterations, "iterations", 0, "incast iterations per point (0 = default; paper uses 40)")
	fs.Uint64Var(&opts.Seed, "seed", 0, "master seed (0 = default)")
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		return opts, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return opts, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  diablo list
  diablo run <id> [-requests N] [-iterations N] [-seed S]
  diablo all [flags]
  diablo validate FILE...`)
}
