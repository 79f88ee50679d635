package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per workload x end-to-end metric, both medians, the
// ratio of B to its base A, the bound and a verdict:
//
//	within      B's median is no worse than A's by more than the bound
//	worse       it is, by more than the bound (and the metric's floor)
//	unresolved  a side's own spread (IQR/median) is wider than the bound,
//	            so the two medians cannot be told apart at that bound
//
// It also requires the failed share not to rise and, for workloads that
// replay, every deterministic count of the traced runs to be identical. It
// returns true when anything is worse.
func compareFiles(out io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	find := func(fr fileReport, workload string, traced bool) *report {
		for i := range fr.Reports {
			if r := &fr.Reports[i]; r.Workload == workload && r.Traced == traced {
				return r
			}
		}
		return nil
	}

	fmt.Fprintf(out, "base A = %s\n     B = %s\n", pathA, pathB)
	fmt.Fprintf(out, "%-18s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "verdict")
	compared := 0
	for _, w := range workloads() {
		ra, rb := find(a, w.name, false), find(b, w.name, false)
		if ra == nil || rb == nil {
			continue
		}
		compared++
		for _, def := range endToEnd {
			sa, sb := ra.Metrics[def.name], rb.Metrics[def.name]
			delta := sb.Median - sa.Median
			if def.better == "higher" {
				delta = -delta
			}
			verdict := "within"
			switch {
			case sa.spread() > def.bound || sb.spread() > def.bound:
				verdict = "unresolved"
			case delta > def.bound*sa.Median && delta > def.floor:
				verdict = "worse"
				worse = true
			}
			fmt.Fprintf(out, "%-18s %-18s %12.6g %12.6g %8.4f %6.2f  %s\n",
				w.name, def.name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), def.bound, verdict)
		}
		if fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted)); fb > fa {
			fmt.Fprintf(out, "%-18s failed share rose: %d/%d -> %d/%d\n", w.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			worse = true
		}

		ta, tb := find(a, w.name, true), find(b, w.name, true)
		if ta == nil || tb == nil || !w.deterministic {
			continue
		}
		for _, def := range perLayer {
			if def.unit != "count" {
				continue
			}
			if ca, cb := ta.Metrics[def.name].Median, tb.Metrics[def.name].Median; ca != cb {
				fmt.Fprintf(out, "%-18s count %s differs: %.0f -> %.0f\n", w.name, def.name, ca, cb)
				worse = true
			}
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("the two files share no workload")
	}
	return worse, nil
}
