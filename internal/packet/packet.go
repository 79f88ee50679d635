// Package packet defines the on-the-wire unit exchanged by DIABLO's NIC and
// switch models: an abstract Ethernet frame with a pre-computed source route
// (the paper's "simplified source routing", §3.3), transport headers, and the
// application message.
//
// Payload bytes are accounted for in timing but never materialized: a packet
// carries the byte counts that determine serialization and buffering, plus the
// message the endpoints hand to the application: a fixed-size Msg, by value,
// on a UDP datagram's final fragment or on the TCP segment whose last byte
// ends it.
// This mirrors DIABLO, where the functional model moved real bytes but the
// experiments only observe timing and sizes.
package packet

import (
	"fmt"

	"diablo/internal/sim"
)

// NodeID identifies a simulated server within a cluster.
type NodeID int32

// Port is a transport-layer port number.
type Port uint16

// Addr is a transport address: a node and a port.
type Addr struct {
	Node NodeID
	Port Port
}

// String renders the address as node:port.
func (a Addr) String() string { return fmt.Sprintf("n%d:%d", a.Node, a.Port) }

// Proto selects the transport protocol carried in the frame.
type Proto uint8

// Transport protocols understood by the simulated stack.
const (
	ProtoUDP Proto = iota
	ProtoTCP
)

func (p Proto) String() string {
	switch p {
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Framing and header sizes in bytes. EthOverhead includes preamble/SFD (8)
// and minimum inter-frame gap (12) because both consume link time, plus the
// 14-byte header and 4-byte FCS.
const (
	EthHeader   = 14
	EthFCS      = 4
	EthPreamble = 8
	EthIFG      = 12
	EthOverhead = EthHeader + EthFCS + EthPreamble + EthIFG // 38

	IPHeader  = 20
	UDPHeader = 8
	TCPHeader = 20

	// MTU is the maximum IP datagram size (payload of an Ethernet frame).
	MTU = 1500
	// MSS is the maximum TCP segment payload.
	MSS = MTU - IPHeader - TCPHeader // 1460
	// MaxUDPPayload is the largest unfragmented UDP payload we model.
	MaxUDPPayload = MTU - IPHeader - UDPHeader // 1472
	// MinFrame is the minimum Ethernet frame size (without preamble/IFG).
	MinFrame = 64
)

// TCPFlags are TCP header control bits.
type TCPFlags uint8

// TCP control bits used by the simulated stack.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

func (f TCPFlags) String() string {
	s := ""
	if f&FlagSYN != 0 {
		s += "S"
	}
	if f&FlagACK != 0 {
		s += "A"
	}
	if f&FlagFIN != 0 {
		s += "F"
	}
	if f&FlagRST != 0 {
		s += "R"
	}
	if s == "" {
		s = "-"
	}
	return s
}

// TCPHdr is the simulated TCP header.
type TCPHdr struct {
	Flags  TCPFlags
	Seq    uint32 // first payload byte's sequence number
	Ack    uint32 // cumulative acknowledgement
	Window uint32 // advertised receive window in bytes
	// EndSeq is the end of the one application message whose last byte this
	// segment carries, the message itself in Packet.Msg (see package tcp):
	// framing metadata, like UDPHdr, kept inline so that a segment carrying a
	// message allocates nothing.
	EndSeq uint32
}

// Msg is an application message carried by value, like the fixed-format
// records DIABLO's models exchange: a Kind the application defines (zero: no
// message) and three words whose meaning the Kind gives. Holding no pointers,
// it allocates nothing and the receiver's copy never aliases the sender's.
type Msg struct {
	Kind    uint8
	A, B, C uint64
}

// Bound marks the end of an application message within a TCP byte stream:
// Msg is complete when the receiver's in-order stream reaches EndSeq.
type Bound struct {
	EndSeq uint32
	Msg    Msg
}

// UDPHdr carries a datagram's fragmentation metadata inline, the moral
// equivalent of the IP fragment header. A Total of zero marks a raw
// unfragmented packet that is the whole datagram (direct construction in
// tests and simple senders).
type UDPHdr struct {
	FragID uint64 // datagram ID the fragment belongs to (per source socket)
	Index  uint16 // fragment index within the datagram
	Total  uint16 // fragment count (0 = raw unfragmented packet)
	Bytes  int    // whole-datagram payload size
}

// MaxRouteHops bounds the inline source route. The deepest fabric today is
// host -> ToR -> array -> datacenter -> array -> ToR (5 route entries); 8
// leaves headroom for one more tier without another packet-layout change.
const MaxRouteHops = 8

// Route is a pre-computed source route stored inline in the packet: ports[i]
// is the egress port index at the i-th switch on the path. Storing the route
// as a fixed array instead of a []uint8 removes one heap allocation per
// simulated packet — routes are built once by the topology layer and only
// ever consumed front-to-back, so the slice machinery bought nothing.
//
// Route is a comparable value type: routes compare with == and copy by
// assignment.
type Route struct {
	ports [MaxRouteHops]uint8
	n     uint8
}

// MakeRoute builds a route from egress port indexes. It panics if the path
// is deeper than MaxRouteHops — a topology bug, not a runtime condition.
func MakeRoute(ports ...uint8) Route {
	var r Route
	if len(ports) > MaxRouteHops {
		panic(fmt.Sprintf("packet: route depth %d exceeds MaxRouteHops=%d", len(ports), MaxRouteHops))
	}
	copy(r.ports[:], ports)
	r.n = uint8(len(ports))
	return r
}

// Len returns the number of route entries.
func (r *Route) Len() int { return int(r.n) }

// At returns the i-th egress port index.
func (r *Route) At(i int) uint8 { return r.ports[i] }

// Append adds one egress port to the route, panicking past MaxRouteHops.
func (r *Route) Append(port uint8) {
	if int(r.n) >= MaxRouteHops {
		panic(fmt.Sprintf("packet: route depth exceeds MaxRouteHops=%d", MaxRouteHops))
	}
	r.ports[r.n] = port
	r.n++
}

// Ports returns the route as a slice view for tests and diagnostics. The
// view aliases the route's backing array; hot paths use At/Len instead.
func (r *Route) Ports() []uint8 { return r.ports[:r.n] }

// String renders the route for traces and panics.
func (r Route) String() string {
	s := "["
	for i := 0; i < int(r.n); i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d", r.ports[i])
	}
	return s + "]"
}

// Packet is one simulated frame in flight.
type Packet struct {
	Src, Dst Addr
	Proto    Proto

	// Route is the inline source route; Hop is the index of the next switch
	// to consume a route entry.
	Route Route
	// Pool-lifecycle bookkeeping (see Pool), in the padding after Route.
	// pstate distinguishes heap-constructed packets (zero: untracked,
	// GC-owned) from pool handles (live or on a freelist); pgen counts
	// recycles of the slab slot so slabdebug builds can name stale handles.
	pstate uint8
	pgen   uint32
	Hop    int

	// PayloadBytes is the transport payload length. The full wire size is
	// derived, not stored (see WireBytes).
	PayloadBytes int

	// TCP holds TCP header fields when Proto == ProtoTCP.
	TCP TCPHdr

	// UDP holds datagram fragmentation metadata when Proto == ProtoUDP.
	UDP UDPHdr

	// Msg is the application message the packet completes, by value: a UDP
	// datagram's, on its final fragment; a TCP segment's one message
	// boundary, ending at TCP.EndSeq. Kind zero means none.
	Msg Msg
	// Bounds lists the boundaries of a TCP segment covering two or more, in
	// EndSeq order (Msg is then unset); nil on every other packet. It is the
	// one reference a packet holds, allocated only for such a segment.
	Bounds *[]Bound

	// Instrumentation.
	SentAt sim.Time // when the first bit left the source NIC
	// FirstBitArrival is maintained by links: the time the leading bit of
	// this frame arrived at the current endpoint. Switch cut-through uses it.
	FirstBitArrival sim.Time
}

// headerBytes returns transport+IP header bytes for the packet's protocol.
func (p *Packet) headerBytes() int {
	switch p.Proto {
	case ProtoUDP:
		return IPHeader + UDPHeader
	case ProtoTCP:
		return IPHeader + TCPHeader
	default:
		return IPHeader
	}
}

// FrameBytes returns the Ethernet frame size (header+FCS, no preamble/IFG),
// clamped to the 64-byte minimum frame.
func (p *Packet) FrameBytes() int {
	checkLive(p)
	n := EthHeader + EthFCS + p.headerBytes() + p.PayloadBytes
	if n < MinFrame {
		n = MinFrame
	}
	return n
}

// WireBytes returns the bytes of link time the frame consumes, including
// preamble and inter-frame gap. This is what serialization and switch buffer
// accounting use.
func (p *Packet) WireBytes() int {
	return p.FrameBytes() + EthPreamble + EthIFG
}

// BufferBytes returns the bytes the frame occupies in a switch packet
// buffer (the stored frame, without preamble/IFG).
func (p *Packet) BufferBytes() int { return p.FrameBytes() }

// NextRoutePort consumes and returns the egress port for the current switch
// hop. It returns -1 if the route is exhausted (a routing bug).
func (p *Packet) NextRoutePort() int {
	checkLive(p)
	if p.Hop >= p.Route.Len() {
		return -1
	}
	port := int(p.Route.At(p.Hop))
	p.Hop++
	return port
}

// String renders a compact description for traces.
func (p *Packet) String() string {
	if p.Proto == ProtoTCP {
		return fmt.Sprintf("%v>%v tcp[%v seq=%d ack=%d] %dB",
			p.Src, p.Dst, p.TCP.Flags, p.TCP.Seq, p.TCP.Ack, p.PayloadBytes)
	}
	return fmt.Sprintf("%v>%v %v %dB", p.Src, p.Dst, p.Proto, p.PayloadBytes)
}
