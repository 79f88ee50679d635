package core

import (
	"fmt"
	"sort"

	"diablo/internal/fault"
	"diablo/internal/link"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// WithFaults installs a fault schedule over the wired cluster. The plan is
// validated and every apply/clear edge is scheduled (on the target's own
// partition) before the run starts; see package fault for the determinism
// contract.
func WithFaults(p *fault.Plan) Option {
	return func(o *options) { o.faults = p }
}

// FaultEdge is one recorded fault transition (impairment applied or cleared).
type FaultEdge struct {
	At     sim.Time
	Where  string
	Detail string
}

func (e FaultEdge) String() string {
	return fmt.Sprintf("%-12v %-18s %s", e.At, e.Where, e.Detail)
}

// recordFaultEdge is the fault.Notify sink. Edges fire from worker
// goroutines in a partitioned run, hence the mutex; ordering is restored in
// FaultEdges.
func (c *Cluster) recordFaultEdge(at sim.Time, where, detail string) {
	c.faultMu.Lock()
	c.faultEdges = append(c.faultEdges, FaultEdge{At: at, Where: where, Detail: detail})
	c.faultMu.Unlock()
}

// FaultEdges returns every fault transition that has fired, sorted by
// (time, target, detail) so the result is independent of worker count.
func (c *Cluster) FaultEdges() []FaultEdge {
	c.faultMu.Lock()
	out := make([]FaultEdge, len(c.faultEdges))
	copy(out, c.faultEdges)
	c.faultMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return a.Detail < b.Detail
	})
	return out
}

// FaultDrops sums frames removed by the fault layer across every link and
// switch in the cluster.
func (c *Cluster) FaultDrops() uint64 {
	var total uint64
	addSwitch := func(sw interface {
		OutputLink(i int) *link.Link
	}, ports int, faultDrops uint64) {
		total += faultDrops
		for i := 0; i < ports; i++ {
			if l := sw.OutputLink(i); l != nil {
				total += l.FaultDrops.Packets
			}
		}
	}
	for _, sw := range c.Tors {
		addSwitch(sw, sw.Params().Ports, sw.Stats.FaultDrops.Packets)
	}
	for _, sw := range c.Arrays {
		addSwitch(sw, sw.Params().Ports, sw.Stats.FaultDrops.Packets)
	}
	if c.DC != nil {
		addSwitch(c.DC, c.DC.Params().Ports, c.DC.Stats.FaultDrops.Packets)
	}
	for _, m := range c.Machines {
		total += m.NIC().Wire().FaultDrops.Packets
	}
	return total
}

// --- fault.Binder ----------------------------------------------------------

// Links implements fault.Binder: it resolves a link-scoped target to the
// affected simplex links with their owning partitions.
func (c *Cluster) Links(t fault.Target) ([]fault.BoundLink, error) {
	topo := c.Topo
	var out []fault.BoundLink
	add := func(l *link.Link, part int, label string) {
		out = append(out, fault.BoundLink{Link: l, Sched: c.pe.Partition(part), Label: label})
	}
	if t.Node >= 0 {
		// Server edge: NIC->ToR (up) and ToR->NIC (down), both owned by the
		// server's rack partition.
		if t.Node >= topo.Servers() {
			return nil, fmt.Errorf("core: node %d out of range (%d servers)", t.Node, topo.Servers())
		}
		node := packet.NodeID(t.Node)
		rack := topo.RackOf(node)
		if t.Dir == fault.Both || t.Dir == fault.Up {
			add(c.Machine(node).NIC().Wire(), rack, fmt.Sprintf("edge-%d-up", t.Node))
		}
		if t.Dir == fault.Both || t.Dir == fault.Down {
			add(c.Tors[rack].OutputLink(topo.IndexInRack(node)), rack, fmt.Sprintf("edge-%d-down", t.Node))
		}
		return out, nil
	}
	// Rack uplink: ToR->array (up, rack partition) and array->ToR (down,
	// fabric partition).
	if !topo.MultiRack() {
		return nil, fmt.Errorf("core: single-rack topology has no rack uplinks")
	}
	if t.Rack < 0 || t.Rack >= topo.Racks() {
		return nil, fmt.Errorf("core: rack %d out of range (%d racks)", t.Rack, topo.Racks())
	}
	fabric := topo.Racks()
	if t.Dir == fault.Both || t.Dir == fault.Up {
		add(c.Tors[t.Rack].OutputLink(topo.TorUplinkPort()), t.Rack, fmt.Sprintf("uplink-%d-up", t.Rack))
	}
	if t.Dir == fault.Both || t.Dir == fault.Down {
		add(c.Arrays[topo.ArrayOf(t.Rack)].OutputLink(topo.RackInArray(t.Rack)), fabric, fmt.Sprintf("uplink-%d-down", t.Rack))
	}
	return out, nil
}

// Switch implements fault.Binder.
func (c *Cluster) Switch(level fault.Level, index int) (fault.BoundSwitch, error) {
	fabric := c.Topo.Racks()
	switch level {
	case fault.ToR:
		if index < 0 || index >= len(c.Tors) {
			return fault.BoundSwitch{}, fmt.Errorf("core: no ToR switch %d", index)
		}
		return fault.BoundSwitch{Switch: c.Tors[index], Sched: c.pe.Partition(index), Label: fmt.Sprintf("tor-%d", index)}, nil
	case fault.Array:
		if index < 0 || index >= len(c.Arrays) {
			return fault.BoundSwitch{}, fmt.Errorf("core: no array switch %d", index)
		}
		return fault.BoundSwitch{Switch: c.Arrays[index], Sched: c.pe.Partition(fabric), Label: fmt.Sprintf("array-%d", index)}, nil
	case fault.DC:
		if c.DC == nil {
			return fault.BoundSwitch{}, fmt.Errorf("core: topology has no datacenter switch")
		}
		return fault.BoundSwitch{Switch: c.DC, Sched: c.pe.Partition(fabric), Label: "dc"}, nil
	}
	return fault.BoundSwitch{}, fmt.Errorf("core: unknown switch level %v", level)
}

// NICOf implements fault.Binder.
func (c *Cluster) NICOf(node int) (fault.Staller, sim.Scheduler, error) {
	if node < 0 || node >= c.Topo.Servers() {
		return nil, nil, fmt.Errorf("core: node %d out of range (%d servers)", node, c.Topo.Servers())
	}
	n := packet.NodeID(node)
	return c.Machine(n).NIC(), c.pe.Partition(c.Topo.RackOf(n)), nil
}

// MachineOf implements fault.Binder.
func (c *Cluster) MachineOf(node int) (fault.Slower, sim.Scheduler, error) {
	if node < 0 || node >= c.Topo.Servers() {
		return nil, nil, fmt.Errorf("core: node %d out of range (%d servers)", node, c.Topo.Servers())
	}
	n := packet.NodeID(node)
	return c.Machine(n), c.pe.Partition(c.Topo.RackOf(n)), nil
}
