package fixture

import (
	"diablo/internal/kernel"
	"diablo/internal/packet"
)

// closeAll is the shape the memcached TCP client had: tearing down its
// connections in map order. Each Close is a simulated syscall on t.
func closeAll(t *kernel.Thread, conns map[packet.NodeID]*kernel.TCPSocket) {
	for _, c := range conns {
		c.Close(t) // want `simulated syscall while ranging over a map`
	}
}

// closeInOrder is the fixed shape: the slice fixes the order, the map is only
// looked up.
func closeInOrder(t *kernel.Thread, servers []packet.Addr, conns map[packet.NodeID]*kernel.TCPSocket) {
	for _, s := range servers {
		if c, ok := conns[s.Node]; ok {
			c.Close(t)
			delete(conns, s.Node)
		}
	}
}
