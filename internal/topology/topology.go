// Package topology describes the target WSC network structure (paper
// Figures 1 and 7): racks of servers under Top-of-Rack switches, array
// switches aggregating racks, and a datacenter switch aggregating arrays.
// It computes the static source routes the switch models consume (§3.3:
// "routes can be pre-configured statically. We use source routing").
//
// Port conventions:
//
//	ToR switch:   ports 0..S-1 face servers, port S is the uplink to the
//	              array switch (the paper's Figure 7 uses the 32nd port).
//	Array switch: ports 0..R-1 face racks, port R is the uplink to the
//	              datacenter switch.
//	DC switch:    ports 0..A-1 face array switches.
//
// With one uplink per ToR the rack over-subscription is S:1 and the array
// over-subscription is R:1 (31:1 and 16:1 in the paper's memcached setup).
package topology

import (
	"fmt"

	"diablo/internal/packet"
)

// Params sizes a three-level Clos array.
type Params struct {
	ServersPerRack int // S: servers under each ToR (paper: 31)
	RacksPerArray  int // R: racks under each array switch (paper: 16)
	Arrays         int // A: array switches under the datacenter switch (paper: 4)
}

// ShapeName renders the shape in the canonical "SxRxA" sweep-axis form
// ("31x16x4" is the paper's 1,984-node array). ParseShape inverts it.
func (p Params) ShapeName() string {
	return fmt.Sprintf("%dx%dx%d", p.ServersPerRack, p.RacksPerArray, p.Arrays)
}

// RackOversubscription returns the ToR uplink over-subscription ratio S:1
// (31:1 in the paper's memcached setup; one uplink per ToR).
func (p Params) RackOversubscription() int { return p.ServersPerRack }

// ArrayOversubscription returns the array uplink over-subscription ratio R:1
// (16:1 in the paper).
func (p Params) ArrayOversubscription() int { return p.RacksPerArray }

// ParseShape parses the canonical "SxRxA" form ("31x16x4") into validated
// params. It is the campaign sweep's topology-axis grammar. Only the form
// ShapeName writes is accepted: trailing input, signs, spaces and leading
// zeros are errors, so a shape string always names the cell that runs.
func ParseShape(s string) (Params, error) {
	var p Params
	n, err := fmt.Sscanf(s, "%dx%dx%d", &p.ServersPerRack, &p.RacksPerArray, &p.Arrays)
	if err != nil || n != 3 || p.ShapeName() != s {
		return Params{}, fmt.Errorf("topology: shape %q is not SxRxA (e.g. 31x16x4)", s)
	}
	if _, err := New(p); err != nil {
		return Params{}, err
	}
	return p, nil
}

// HopClass classifies a source/destination pair by the switches a request
// traverses, following §4.2: Local = same rack (ToR only), OneHop = same
// array (one array switch), TwoHop = crosses the datacenter switch.
type HopClass uint8

// Hop classes.
const (
	Local HopClass = iota
	OneHop
	TwoHop
)

func (h HopClass) String() string {
	switch h {
	case Local:
		return "local"
	case OneHop:
		return "1-hop"
	case TwoHop:
		return "2-hop"
	default:
		return fmt.Sprintf("hop(%d)", uint8(h))
	}
}

// Topology is an immutable Clos description.
type Topology struct {
	p Params
}

// New validates params and returns a topology.
func New(p Params) (*Topology, error) {
	if p.ServersPerRack <= 0 || p.RacksPerArray <= 0 || p.Arrays <= 0 {
		return nil, fmt.Errorf("topology: all dimensions must be positive: %+v", p)
	}
	// Port indices ride in uint8 route entries.
	if p.ServersPerRack+1 > 256 {
		return nil, fmt.Errorf("topology: ToR needs %d ports, max 256", p.ServersPerRack+1)
	}
	if p.RacksPerArray+1 > 256 {
		return nil, fmt.Errorf("topology: array switch needs %d ports, max 256", p.RacksPerArray+1)
	}
	if p.Arrays > 256 {
		return nil, fmt.Errorf("topology: DC switch needs %d ports, max 256", p.Arrays)
	}
	return &Topology{p: p}, nil
}

// SingleRack returns the degenerate one-switch topology used by the incast
// and single-rack validation experiments.
func SingleRack(servers int) (*Topology, error) {
	return New(Params{ServersPerRack: servers, RacksPerArray: 1, Arrays: 1})
}

// Params returns the sizing parameters.
func (t *Topology) Params() Params { return t.p }

// Servers returns the total server count.
func (t *Topology) Servers() int {
	return t.p.ServersPerRack * t.p.RacksPerArray * t.p.Arrays
}

// Racks returns the total rack (ToR switch) count.
func (t *Topology) Racks() int { return t.p.RacksPerArray * t.p.Arrays }

// Arrays returns the array switch count.
func (t *Topology) Arrays() int { return t.p.Arrays }

// MultiRack reports whether the topology has more than one rack (and thus
// needs array switches).
func (t *Topology) MultiRack() bool { return t.Racks() > 1 }

// MultiArray reports whether the topology has more than one array (and thus
// needs the datacenter switch).
func (t *Topology) MultiArray() bool { return t.p.Arrays > 1 }

// RackOf returns the global rack index of node n.
func (t *Topology) RackOf(n packet.NodeID) int {
	return int(n) / t.p.ServersPerRack
}

// IndexInRack returns the server's port index on its ToR.
func (t *Topology) IndexInRack(n packet.NodeID) int {
	return int(n) % t.p.ServersPerRack
}

// ArrayOf returns the array index of global rack r.
func (t *Topology) ArrayOf(rack int) int { return rack / t.p.RacksPerArray }

// RackInArray returns rack r's port index on its array switch.
func (t *Topology) RackInArray(rack int) int { return rack % t.p.RacksPerArray }

// Node returns the NodeID at (rack, indexInRack).
func (t *Topology) Node(rack, idx int) packet.NodeID {
	return packet.NodeID(rack*t.p.ServersPerRack + idx)
}

// TorUplinkPort is the ToR port index facing the array switch.
func (t *Topology) TorUplinkPort() int { return t.p.ServersPerRack }

// ArrayUplinkPort is the array switch port index facing the DC switch.
func (t *Topology) ArrayUplinkPort() int { return t.p.RacksPerArray }

// Hops classifies the path between two nodes.
func (t *Topology) Hops(src, dst packet.NodeID) HopClass {
	sr, dr := t.RackOf(src), t.RackOf(dst)
	switch {
	case sr == dr:
		return Local
	case t.ArrayOf(sr) == t.ArrayOf(dr):
		return OneHop
	default:
		return TwoHop
	}
}

// SwitchCount returns the number of switches a packet from src to dst
// traverses (1, 3 or 5).
func (t *Topology) SwitchCount(src, dst packet.NodeID) int {
	switch t.Hops(src, dst) {
	case Local:
		return 1
	case OneHop:
		return 3
	default:
		return 5
	}
}

// Route returns the source route from src to dst: the egress port consumed
// at each switch along the path, as an allocation-free inline value. It
// panics on out-of-range nodes (a wiring bug, not a runtime condition).
func (t *Topology) Route(src, dst packet.NodeID) packet.Route {
	n := packet.NodeID(t.Servers())
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("topology: route %d->%d outside 0..%d", src, dst, n-1))
	}
	sr, dr := t.RackOf(src), t.RackOf(dst)
	dstPort := uint8(t.IndexInRack(dst))
	if sr == dr {
		// ToR only.
		return packet.MakeRoute(dstPort)
	}
	up := uint8(t.TorUplinkPort())
	if t.ArrayOf(sr) == t.ArrayOf(dr) {
		// ToR -> array -> ToR.
		return packet.MakeRoute(up, uint8(t.RackInArray(dr)), dstPort)
	}
	// ToR -> array -> DC -> array -> ToR.
	return packet.MakeRoute(up, uint8(t.ArrayUplinkPort()), uint8(t.ArrayOf(dr)), uint8(t.RackInArray(dr)), dstPort)
}

// String summarizes the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("clos(%d servers: %d/rack x %d racks/array x %d arrays)",
		t.Servers(), t.p.ServersPerRack, t.p.RacksPerArray, t.p.Arrays)
}
