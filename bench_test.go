// Benchmarks of the root package: the partitioned engine's wall-clock
// speed-up and the four ablations of DESIGN.md §4. The paper's figures and
// tables are not benchmarks: TestFigureGoldens pins every figure byte for
// byte, and the internal/survey and internal/fpga tests pin Fig. 2, Tables
// 1–2 and §3.4.
package diablo

import (
	"runtime"
	"testing"
	"time"

	"diablo/internal/core"
)

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
