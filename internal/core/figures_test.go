// The Figure 6a and 8 shape checks, over the cells of the campaign presets
// that define those figures (an external test: campaign imports core).
package core_test

import (
	"slices"
	"testing"

	"diablo/internal/campaign"
)

// runPreset runs a figure preset's cells at requests per memcached client or
// iterations per incast run, after trim cuts the spec to test size.
func runPreset(t *testing.T, name string, requests int, trim func(*campaign.Spec)) []*campaign.CellResult {
	t.Helper()
	spec, err := campaign.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Workloads {
		spec.Workloads[i].Requests = requests
	}
	trim(spec)
	cells, err := campaign.RunCells(spec, campaign.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// find returns the cell of the given shape and workload.
func find(t *testing.T, cells []*campaign.CellResult, shape, workload string) *campaign.CellResult {
	t.Helper()
	for _, cr := range cells {
		if cr.Cell.Topology.Shape == shape && cr.Cell.Workload.Name == workload {
			return cr
		}
	}
	t.Fatalf("no cell %s/%s", shape, workload)
	return nil
}

func TestFigure6aShape(t *testing.T) {
	cells := runPreset(t, "fig6a", 5, func(s *campaign.Spec) {
		s.Topologies = []campaign.TopologyAxis{{Shape: "2x1x1"}, {Shape: "5x1x1"}, {Shape: "13x1x1"}}
	})
	mbps := func(shape, workload string) float64 { return find(t, cells, shape, workload).Incast.GoodputBps / 1e6 }
	// Both start near line rate at one sender.
	if d, hw := mbps("2x1x1", "diablo"), mbps("2x1x1", "physical-proxy"); d < 850 || hw < 850 {
		t.Fatalf("1-sender points: diablo=%v hw=%v", d, hw)
	}
	// DIABLO collapses faster than the hardware proxy (paper: "DIABLO has a
	// faster application throughput collapse than measured on the hardware").
	if d, hw := mbps("5x1x1", "diablo"), mbps("5x1x1", "physical-proxy"); d >= hw {
		t.Fatalf("4-sender: diablo=%v should be below hardware=%v", d, hw)
	}
}

func TestFigure8Shapes(t *testing.T) {
	cells := runPreset(t, "fig8", 200, func(s *campaign.Spec) {
		s.Workloads = slices.DeleteFunc(s.Workloads, func(w campaign.WorkloadAxis) bool {
			return w.MaxClients != 2 && w.MaxClients != 8 && w.MaxClients != 14
		})
	})
	for _, system := range []string{"physical-proxy", "diablo"} {
		two, fourteen := find(t, cells, "16x1x1", system+"-2").Result, find(t, cells, "16x1x1", system+"-14").Result
		// Throughput grows with offered load.
		if !(two.ThroughputPerServer() < fourteen.ThroughputPerServer()) {
			t.Fatalf("%s throughput not increasing: %v at 2 clients, %v at 14",
				system, two.ThroughputPerServer(), fourteen.ThroughputPerServer())
		}
		if two.Overall.Mean() <= 0 {
			t.Fatalf("%s zero latency", system)
		}
	}
}
