// Command campaign drives deterministic Monte-Carlo sweeps over
// topology × faults × kernel profiles × workload mixes.
//
// Usage:
//
//	campaign run  (-preset P | -spec FILE) [-workers N] [-o FILE] [-cells-dir DIR] [-q]
//	campaign cells (-preset P | -spec FILE)
//	campaign replay (-preset P | -spec FILE) -cell NAME [-seed S] [-o FILE] [-trace-out FILE]
//	campaign diff OLD.json NEW.json [-threshold 0.25] [-o FILE]
//
// The same spec + master seed yields a byte-identical report at any -workers
// value; every cell is replayable byte-for-byte from the seed its manifest
// records. `campaign replay` is also how one run is observed: a one-cell
// spec (testdata/runs/ holds the documented ones) replayed with -trace-out
// writes the run's Chrome trace beside its manifest. `campaign diff`
// compares two reports (typically two git revisions) and exits 1 when a cell
// regresses past the threshold; `diablo validate` checks a written report,
// manifest or trace against its schema.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"diablo/internal/campaign"
	"diablo/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "cells":
		err = cmdCells(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

// parse parses args into fs; like a bad flag, an argument left after the
// flags ends the command with exit status 2.
func parse(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		os.Exit(2)
	}
}

// loadSpec resolves the two ways of naming a spec, -preset and -spec.
func loadSpec(preset, specPath string) (*campaign.Spec, error) {
	switch {
	case preset != "" && specPath != "":
		return nil, fmt.Errorf("pass -preset or -spec, not both")
	case preset != "":
		return campaign.Preset(preset)
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return campaign.ParseSpec(data)
	default:
		return nil, fmt.Errorf("a spec is required: -preset %s or -spec FILE", strings.Join(campaign.Presets(), "|"))
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	preset := fs.String("preset", "", "built-in spec ("+strings.Join(campaign.Presets(), ", ")+")")
	specPath := fs.String("spec", "", "campaign spec JSON file (schema "+campaign.SpecSchema+")")
	workers := fs.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS; report bytes are identical at any value)")
	out := fs.String("o", "", "write the aggregate report JSON here (default stdout gets the text rendering only)")
	cellsDir := fs.String("cells-dir", "", "also write every cell's run manifest into this directory")
	quiet := fs.Bool("q", false, "suppress per-cell progress on stderr")
	parse(fs, args)

	spec, err := loadSpec(*preset, *specPath)
	if err != nil {
		return err
	}
	rc := campaign.RunConfig{Workers: *workers}
	if !*quiet {
		rc.OnCell = func(done, total int, c campaign.Cell, err error) {
			status := "ok"
			if err != nil {
				status = "FAILED: " + err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %s\n", done, total, c.Name, status)
		}
	}
	start := time.Now()
	results, err := campaign.RunCells(spec, rc)
	if err != nil {
		return err
	}
	rep, err := campaign.BuildReport(spec, results)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign %s: %d cells in %v\n", spec.Name, len(rep.Cells), time.Since(start).Round(time.Millisecond))
	}
	if *cellsDir != "" {
		if err := writeCellManifests(results, *cellsDir); err != nil {
			return err
		}
	}
	if *out != "" {
		b, err := rep.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			return err
		}
	}
	return rep.RenderText(os.Stdout)
}

// writeCellManifests writes each cell's run manifest next to the report.
func writeCellManifests(results []*campaign.CellResult, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, cr := range results {
		name := strings.ReplaceAll(cr.Cell.Name, "/", "_") + ".json"
		if err := os.WriteFile(filepath.Join(dir, name), cr.ManifestJSON, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func cmdCells(args []string) error {
	fs := flag.NewFlagSet("campaign cells", flag.ExitOnError)
	preset := fs.String("preset", "", "built-in spec")
	specPath := fs.String("spec", "", "campaign spec JSON file")
	parse(fs, args)
	spec, err := loadSpec(*preset, *specPath)
	if err != nil {
		return err
	}
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	for _, c := range cells {
		fmt.Printf("%4d  %-52s seed %d\n", c.Index, c.Name, c.Seed)
	}
	fmt.Printf("%d cells\n", len(cells))
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("campaign replay", flag.ExitOnError)
	preset := fs.String("preset", "", "built-in spec")
	specPath := fs.String("spec", "", "campaign spec JSON file")
	cell := fs.String("cell", "", "cell name (see `campaign cells`)")
	seed := fs.Uint64("seed", 0, "manifest-recorded cell seed to cross-check (0 = trust the spec)")
	out := fs.String("o", "", "write the replayed cell manifest here (default stdout)")
	traceOut := fs.String("trace-out", "", "also write the run's Chrome trace-event JSON here (open in ui.perfetto.dev)")
	parse(fs, args)
	spec, err := loadSpec(*preset, *specPath)
	if err != nil {
		return err
	}
	if *cell == "" {
		return fmt.Errorf("replay needs -cell NAME")
	}
	ocfg := core.ObserveConfig{TraceEvents: -1}
	if *traceOut != "" {
		ocfg.TraceEvents = 0 // obs.DefaultTraceCapacity
	}
	cr, err := campaign.ReplayCell(spec, *cell, *seed, ocfg)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		var b bytes.Buffer
		if err := cr.Trace.WriteJSON(&b); err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if *out != "" {
		return os.WriteFile(*out, cr.ManifestJSON, 0o644)
	}
	_, err = os.Stdout.Write(cr.ManifestJSON)
	return err
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("campaign diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0, "relative regression tolerance (0 = default 0.25)")
	out := fs.String("o", "", "also write the machine-readable diff JSON here")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("diff needs exactly two report files, got %d", fs.NArg())
	}
	read := func(path string) (*campaign.Report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return campaign.DecodeReport(data)
	}
	oldRep, err := read(fs.Arg(0))
	if err != nil {
		return err
	}
	newRep, err := read(fs.Arg(1))
	if err != nil {
		return err
	}
	d := campaign.DiffReports(oldRep, newRep, *threshold)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := d.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := d.RenderText(os.Stdout); err != nil {
		return err
	}
	if d.HasRegressions() {
		return fmt.Errorf("%d cells regressed past %.0f%%", len(d.Regressions), d.Threshold*100)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  campaign run  (-preset P | -spec FILE) [-workers N] [-o FILE] [-cells-dir DIR] [-q]
  campaign cells (-preset P | -spec FILE)
  campaign replay (-preset P | -spec FILE) -cell NAME [-seed S] [-o FILE] [-trace-out FILE]
  campaign diff OLD.json NEW.json [-threshold 0.25] [-o FILE]`)
}
