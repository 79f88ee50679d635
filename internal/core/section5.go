package core

import (
	"fmt"
	"time"

	"diablo/internal/apps/memcache"
	"diablo/internal/metrics"
	"diablo/internal/sim"
)

// PerfPoint is one simulator-performance measurement (§5): how much
// wall-clock time one simulated second costs at a given scale.
type PerfPoint struct {
	Nodes     int
	Simulated sim.Duration
	Wall      time.Duration
	Slowdown  float64 // wall / simulated
}

// Section5Performance measures the software simulator the way §5 reports
// DIABLO: simulated-time slowdown at each scale under the memcached UDP
// workload. DIABLO (FPGA-accelerated) achieved a 250-1000x slowdown with
// perfect scaling; a sequential software simulator's slowdown grows with
// node count — this experiment quantifies by how much, which is exactly the
// gap the FPGA acceleration buys.
func Section5Performance(arrays []int, requestsPerClient int) ([]PerfPoint, error) {
	if len(arrays) == 0 {
		arrays = []int{1, 2, 4}
	}
	if requestsPerClient == 0 {
		requestsPerClient = 60
	}
	var out []PerfPoint
	for _, a := range arrays {
		cfg := DefaultMemcached()
		cfg.Arrays = a
		cfg.Proto = memcache.UDP
		cfg.RequestsPerClient = requestsPerClient
		start := time.Now() // host-side self-measurement: wall-clock per simulated second is the experiment's output
		res, err := RunMemcached(cfg)
		if err != nil {
			return nil, fmt.Errorf("section 5 scale %d: %w", Nodes(a), err)
		}
		wall := time.Since(start)
		p := PerfPoint{
			Nodes:     Nodes(a),
			Simulated: res.Elapsed,
			Wall:      wall,
		}
		if res.Elapsed > 0 {
			p.Slowdown = wall.Seconds() / res.Elapsed.Seconds()
		}
		out = append(out, p)
	}
	return out, nil
}

// PerfTable renders performance points in the §5 style.
func PerfTable(points []PerfPoint) *metrics.Table {
	tb := &metrics.Table{
		Title:   "Section 5: simulator performance (wall-clock per simulated time)",
		Columns: []string{"nodes", "simulated", "wall", "slowdown"},
	}
	for _, p := range points {
		tb.AddRow(fmt.Sprint(p.Nodes), p.Simulated.String(),
			p.Wall.Round(time.Millisecond).String(), fmt.Sprintf("%.0fx", p.Slowdown))
	}
	return tb
}
