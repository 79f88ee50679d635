package campaign

import (
	"fmt"

	"diablo/internal/sim"
	"diablo/internal/topology"
)

// Cell is one enumerated scenario: a fully resolved point in the sweep
// space, with the seed that makes it independently replayable.
type Cell struct {
	// Index is the cell's position in enumeration order — the order results
	// aggregate in, whatever order execution completes in.
	Index int
	// Name is the canonical "<shape>/<profile>/<workload>/<draw>" cell id;
	// with Spec.Seeds set it is "<shape>/<profile>/<workload>/s<seed>/<draw>".
	Name string
	// Seed is the cell's master seed: its replicate's entry of Spec.Seeds, or
	// else derived from the campaign seed and its baseline cell's name, so
	// every draw of a combination runs at its baseline's seed. It seeds the
	// cluster and (on faulted cells, labelled by draw) the fault plan;
	// recording it in the cell manifest is what makes the cell replayable.
	Seed uint64

	Topology TopologyAxis
	Shape    topology.Params
	Profile  string
	Workload WorkloadAxis
	// Draw is the Monte-Carlo fault draw: 0 = unfaulted baseline.
	Draw int
	// BaselineIndex locates the unfaulted baseline cell of the same combo
	// and seed (== Index on baseline cells themselves).
	BaselineIndex int
}

// Baseline reports whether the cell is its combination's unfaulted baseline.
func (c Cell) Baseline() bool { return c.Draw == 0 }

func drawName(draw int) string {
	if draw == 0 {
		return "baseline"
	}
	return fmt.Sprintf("fault-%02d", draw)
}

// Cells enumerates the spec's cell set in the canonical order: topologies
// (outer), profiles, workloads, seeds, then draw 0..Draws. The enumeration is
// a pure function of the spec — same spec, same cells, same seeds.
func (s *Spec) Cells() ([]Cell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// One replicate per seed; without Seeds, a single replicate whose cells
	// derive their seeds from their names.
	replicates := max(len(s.Seeds), 1)
	var cells []Cell
	for _, t := range s.Topologies {
		shape, err := topology.ParseShape(t.Shape)
		if err != nil {
			return nil, err
		}
		for _, prof := range s.Profiles {
			for _, wl := range s.Workloads {
				for r := 0; r < replicates; r++ {
					baseline := len(cells)
					prefix := fmt.Sprintf("%s/%s/%s/", shape.ShapeName(), prof, wl.Name)
					if len(s.Seeds) > 0 {
						prefix += fmt.Sprintf("s%d/", s.Seeds[r])
					}
					// Every draw runs at its baseline's seed, so a faulted
					// cell differs from its baseline in its fault plan alone.
					seed := sim.DeriveSeed(s.MasterSeed, "campaign/"+s.Name+"/cell/"+prefix+drawName(0))
					if len(s.Seeds) > 0 {
						seed = s.Seeds[r]
					}
					for draw := 0; draw <= s.Faults.Draws; draw++ {
						cells = append(cells, Cell{
							Index:         len(cells),
							Name:          prefix + drawName(draw),
							Seed:          seed,
							Topology:      t,
							Shape:         shape,
							Profile:       prof,
							Workload:      wl,
							Draw:          draw,
							BaselineIndex: baseline,
						})
					}
				}
			}
		}
	}
	return cells, nil
}

// CellByName finds a cell in the spec's enumeration.
func (s *Spec) CellByName(name string) (Cell, error) {
	cells, err := s.Cells()
	if err != nil {
		return Cell{}, err
	}
	for _, c := range cells {
		if c.Name == name {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("campaign: no cell %q in spec %q", name, s.Name)
}
