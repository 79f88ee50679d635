// Simlint is the multichecker for the repo's determinism, scheduler and unit
// invariants: detlint, schedlint and unitlint (see internal/analysis). It
// type-checks the named packages (./... by default, test files included) and
// reports every finding not covered by a //simlint:allow suppression, exiting
// nonzero if any remain.
//
// Usage:
//
//	go run ./cmd/simlint [-run detlint,schedlint] [-list] \
//	    [-json findings.json] [-budget 90s] [packages]
//
// -json writes every finding — suppressed ones included, with the suppressed
// flag set — as a machine-readable report (the CI artifact). -budget fails
// the run if analysis wall-clock exceeds the duration, so the lint gate cannot
// quietly eat the edit-compile loop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"diablo/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.String("json", "", "write all findings (suppressed included) as JSON to this file")
	budget := flag.Duration("budget", 0, "fail if analysis wall-clock exceeds this duration (0 = no budget)")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *run != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*run, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "simlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	start := time.Now()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	var all []analysis.Finding
	failed := false
	for _, pkg := range pkgs {
		findings, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		all = append(all, findings...)
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			failed = true
			fmt.Println(f)
		}
	}
	elapsed := time.Since(start)

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, findingsReport(all, elapsed)); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "simlint: analysis took %s, over the %s budget\n",
			elapsed.Round(time.Millisecond), *budget)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable form of one finding.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

type report struct {
	ElapsedMS  int64         `json:"elapsed_ms"`
	Total      int           `json:"total"`
	Suppressed int           `json:"suppressed"`
	Findings   []jsonFinding `json:"findings"`
}

func findingsReport(all []analysis.Finding, elapsed time.Duration) report {
	r := report{ElapsedMS: elapsed.Milliseconds(), Findings: []jsonFinding{}}
	for _, f := range all {
		r.Total++
		if f.Suppressed {
			r.Suppressed++
		}
		r.Findings = append(r.Findings, jsonFinding{
			Analyzer:   f.Analyzer,
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Column:     f.Pos.Column,
			Message:    f.Message,
			Suppressed: f.Suppressed,
		})
	}
	return r
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
