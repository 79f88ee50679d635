// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale (see DESIGN.md §3 for the per-experiment index and the
// reduced-scale policy). Each benchmark reports the figure's headline
// numbers as custom metrics, so `go test -bench` output is itself a compact
// rendering of the paper's results; the cmd/diablo CLI prints the full
// series.
package diablo

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"diablo/internal/campaign"
	"diablo/internal/core"
	"diablo/internal/fpga"
	"diablo/internal/survey"
)

// benchPreset runs a figure's campaign preset at requests per memcached
// client or iterations per incast run, first letting trim cut the spec to
// bench size.
func benchPreset(b *testing.B, name string, requests int, trim func(*campaign.Spec)) []*campaign.CellResult {
	b.Helper()
	spec, err := campaign.Preset(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := range spec.Workloads {
		spec.Workloads[i].Requests = requests
	}
	if trim != nil {
		trim(spec)
	}
	cells, err := campaign.RunCells(spec, campaign.RunConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return cells
}

// senders keeps the incast shapes of the given sender counts.
func senders(counts ...int) func(*campaign.Spec) {
	return func(s *campaign.Spec) {
		s.Topologies = s.Topologies[:0]
		for _, n := range counts {
			s.Topologies = append(s.Topologies, campaign.TopologyAxis{Shape: fmt.Sprintf("%dx1x1", n+1)})
		}
	}
}

func BenchmarkFigure2Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := survey.Figure2()
		if s.Len() == 0 {
			b.Fatal("empty survey")
		}
	}
	b.ReportMetric(float64(survey.MedianServers()), "median-servers")
	b.ReportMetric(float64(survey.MedianSwitches()), "median-switches")
}

func BenchmarkTable1Workloads(b *testing.B) {
	var c map[survey.Workload]int
	for i := 0; i < b.N; i++ {
		c = survey.WorkloadCounts()
	}
	b.ReportMetric(float64(c[survey.Microbenchmark]), "microbenchmark")
	b.ReportMetric(float64(c[survey.Trace]), "trace")
	b.ReportMetric(float64(c[survey.Application]), "application")
}

func BenchmarkTable2FPGAResources(b *testing.B) {
	var u float64
	for i := 0; i < b.N; i++ {
		u = fpga.RackFPGATotal().Utilization(fpga.Virtex5LX155T)
	}
	b.ReportMetric(u*100, "binding-util-%")
	b.ReportMetric(float64(fpga.RackFPGATotal().LUT), "total-LUT")
}

func BenchmarkSection34Prototype(b *testing.B) {
	var servers int
	for i := 0; i < b.N; i++ {
		servers = fpga.PaperPrototype().SimulatedServers()
	}
	b.ReportMetric(float64(servers), "servers")
	b.ReportMetric(fpga.PaperCostComparison().CapexRatio(), "capex-ratio")
}

func BenchmarkFigure6aIncast1G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := drawFig6a(benchPreset(b, "fig6a", 8, senders(1, 2, 4, 8, 16, 24))).Series
		diablo, hw := series[0], series[2]
		// Headline: line rate at 1 sender, DIABLO collapses below hardware.
		b.ReportMetric(diablo.Y[0], "diablo-1sender-mbps")
		b.ReportMetric(diablo.Y[3], "diablo-8sender-mbps")
		b.ReportMetric(hw.Y[3], "hardware-8sender-mbps")
	}
}

func BenchmarkFigure6bIncast10G(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := drawFig6b(benchPreset(b, "fig6b", 8, senders(1, 9, 23))).Series
		// Headline: 2 GHz pthread capped near 1.8 Gbps before collapse.
		b.ReportMetric(series[2].Y[0], "pthread2ghz-1sender-mbps")
		b.ReportMetric(series[0].Y[0], "pthread4ghz-1sender-mbps")
		b.ReportMetric(series[2].Y[2], "pthread2ghz-23sender-mbps")
	}
}

func BenchmarkFigure8RackValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := drawFig8(benchPreset(b, "fig8", 250, func(s *campaign.Spec) {
			s.Workloads = slices.DeleteFunc(s.Workloads, func(w campaign.WorkloadAxis) bool {
				return w.MaxClients != 2 && w.MaxClients != 8 && w.MaxClients != 14
			})
		})).Series
		th, lat := series[:2], series[2:]
		b.ReportMetric(th[1].Y[2], "diablo-14cl-req/s")
		b.ReportMetric(th[0].Y[2], "physical-14cl-req/s")
		b.ReportMetric(lat[1].Y[2], "diablo-14cl-mean-us")
	}
}

func BenchmarkFigure9Cdf120(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cells := benchPreset(b, "fig9", 80, nil); len(cells) != 4 {
			b.Fatalf("want 4 curves, got %d", len(cells))
		}
	}
}

func BenchmarkFigure10PmfHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultMemcached()
		cfg.RequestsPerClient = 80
		res, err := RunMemcached(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ByHop[Local].Percentile(.5).Microseconds(), "local-p50-us")
		b.ReportMetric(res.ByHop[TwoHop].Percentile(.5).Microseconds(), "2hop-p50-us")
		b.ReportMetric(float64(res.ByHop[TwoHop].Count())/float64(res.Samples), "2hop-fraction")
	}
}

// benchFigure runs a campaign-preset figure through the registry.
func benchFigure(b *testing.B, id string, requests int) *ExperimentOutput {
	b.Helper()
	out, err := RunExperiment(id, ExperimentOptions{Requests: requests})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

func BenchmarkFigure11ScaleTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchPreset(b, "fig11", 80, nil)
		// Report the scale amplification directly: 496 vs 1,984 nodes.
		b.ReportMetric(cells[0].Result.Overall.Percentile(.99).Microseconds(), "p99-500node-us")
		b.ReportMetric(cells[2].Result.Overall.Percentile(.99).Microseconds(), "p99-2000node-us")
	}
}

func BenchmarkFigure12SwitchLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchFigure(b, "fig12", 80)
	}
}

func BenchmarkFigure13TcpVsUdp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := benchFigure(b, "fig13", 60); len(out.Series) != 12 {
			b.Fatalf("want 12 curves, got %d", len(out.Series))
		}
	}
}

func BenchmarkFigure14KernelVersions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := benchPreset(b, "fig14", 80, nil)
		b.ReportMetric(cells[0].Result.Overall.Mean().Microseconds(), "mean-2.6.39-us")
		b.ReportMetric(cells[1].Result.Overall.Mean().Microseconds(), "mean-3.5.7-us")
	}
}

func BenchmarkFigure15MemcachedVersions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := benchFigure(b, "fig15", 80); len(out.Series) != 4 {
			b.Fatalf("want 4 curves, got %d", len(out.Series))
		}
	}
}

func BenchmarkSection5SimulatorPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := Section5Performance([]int{1}, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Slowdown, "slowdown-496node-x")
	}
}

func BenchmarkSection5Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := Section5Performance([]int{1, 4}, 40)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Slowdown, "slowdown-496-x")
		b.ReportMetric(points[1].Slowdown, "slowdown-1984-x")
	}
}

// BenchmarkParallelClusterSpeedup runs the same multi-rack memcached model
// single-threaded and with one worker per CPU, reporting the wall-clock
// ratio. The two runs produce identical simulation results (asserted by
// TestMemcachedWorkerCountDeterminism); on a multi-core host the parallel
// run should be >= 1.5x faster at this scale. On a single-core host the
// ratio degenerates to ~1x — the barrier protocol, not the hardware, is
// what this benchmark exercises there.
func BenchmarkParallelClusterSpeedup(b *testing.B) {
	run := func(workers int) time.Duration {
		cfg := DefaultMemcached()
		cfg.Arrays = 2 // 32 racks + fabric = 33 partitions, 992 nodes
		cfg.RequestsPerClient = 30
		cfg.Partitions = workers
		start := time.Now()
		if _, err := RunMemcached(cfg); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		serial := run(1)
		parallel := run(runtime.NumCPU())
		b.ReportMetric(serial.Seconds(), "serial-s")
		b.ReportMetric(parallel.Seconds(), "parallel-s")
		b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
		b.ReportMetric(float64(runtime.NumCPU()), "cpus")
	}
}

// --- ablations (DESIGN.md §4) -------------------------------------------------

func BenchmarkAblationSwitchArch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		voq := core.DefaultIncast(8)
		voq.Iterations = 8
		shared := voq
		shared.Switch = SharedBufferCommodity("tor", 0)
		rv, err := RunIncast(voq)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := RunIncast(shared)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rv.GoodputBps/1e6, "voq-mbps")
		b.ReportMetric(rs.GoodputBps/1e6, "shared-mbps")
	}
}

func BenchmarkAblationMinRTO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ms := range []int{200, 20, 2} {
			cfg := core.DefaultIncast(8)
			cfg.Iterations = 8
			cfg.MinRTO = Duration(ms) * Millisecond
			res, err := RunIncast(cfg)
			if err != nil {
				b.Fatal(err)
			}
			switch ms {
			case 200:
				b.ReportMetric(res.GoodputBps/1e6, "rto200ms-mbps")
			case 20:
				b.ReportMetric(res.GoodputBps/1e6, "rto20ms-mbps")
			case 2:
				b.ReportMetric(res.GoodputBps/1e6, "rto2ms-mbps")
			}
		}
	}
}

func BenchmarkAblationNicIrq(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, itr := range []Duration{-1, 20 * Microsecond, 100 * Microsecond} {
			cfg := DefaultMemcached()
			cfg.Arrays = 1
			cfg.RequestsPerClient = 60
			cfg.NICRxITR = itr
			res, err := RunMemcached(cfg)
			if err != nil {
				b.Fatal(err)
			}
			us := res.Overall.Percentile(.99).Microseconds()
			switch itr {
			case -1:
				b.ReportMetric(us, "no-mitigation-p99-us")
			case 20 * Microsecond:
				b.ReportMetric(us, "itr20us-p99-us")
			default:
				b.ReportMetric(us, "itr100us-p99-us")
			}
		}
	}
}

func BenchmarkAblationCPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cpi := range []float64{0.5, 1, 2} {
			cfg := core.DefaultIncast(1)
			cfg.Iterations = 6
			cfg.CPU.CPI = cpi
			res, err := RunIncast(cfg)
			if err != nil {
				b.Fatal(err)
			}
			switch cpi {
			case 0.5:
				b.ReportMetric(res.GoodputBps/1e6, "cpi0.5-mbps")
			case 1:
				b.ReportMetric(res.GoodputBps/1e6, "cpi1-mbps")
			default:
				b.ReportMetric(res.GoodputBps/1e6, "cpi2-mbps")
			}
		}
	}
}
