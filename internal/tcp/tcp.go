// Package tcp implements a from-scratch TCP suitable for DIABLO's
// experiments: 3-way handshake, MSS segmentation, sliding windows, Reno/
// NewReno congestion control (slow start, congestion avoidance, fast
// retransmit and recovery), delayed ACKs, Jacobson RTT estimation, and an
// RTO with the configurable 200 ms Linux minimum that drives the TCP Incast
// throughput collapse (§4.1, [60]).
//
// The package is host-agnostic: a Conn talks to its kernel through the Env
// interface (timers + segment output), so the protocol logic is unit-testable
// over a loopback harness and the simulated kernel charges CPU costs around
// it.
//
// Byte streams are modeled without materializing payload bytes: senders
// enqueue (length, message) pairs, segments carry the message boundaries
// they cover, and receivers surface messages once the in-order byte stream
// passes each boundary — exactly the framing a real application would
// reconstruct by parsing. Messages are packet.Msg values, copied at Send and
// never referenced: a segment covering one boundary carries it inline
// (TCPHdr.EndSeq, the message in Packet.Msg); only one covering two or more
// carries a list (Packet.Bounds).
//
// A connection allocates nothing per segment or message in steady state:
// boundary queues are head-indexed and reused, timers are sim.TimerEvent
// records (on an Env that schedules them), and Read returns a per-connection
// buffer. A socket embeds its Conn and is its Owner, so an endpoint is one
// heap object.
package tcp

import (
	"fmt"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Env is the host environment a connection runs in. All methods are invoked
// from the simulation event context.
type Env interface {
	// Now returns the current simulated time.
	Now() sim.Time
	// At schedules a timer callback.
	At(t sim.Time, fn func()) sim.EventID
	// Cancel cancels a timer.
	Cancel(id sim.EventID)
	// Output transmits a fully-formed segment (the host fills in the route
	// and charges TX processing costs).
	Output(pkt *packet.Packet)
	// NewPacket allocates the segment Output will carry, from the host's
	// packet pool when it has one. Ownership transfers back to the host at
	// Output; the connection never retains a segment it emitted.
	NewPacket() *packet.Packet
}

// eventEnv is an Env that also schedules typed records, as sim.Scheduler
// does. A connection arms its timers as sim.TimerEvent records through one;
// Init wraps a plain Env in a closureEnv.
type eventEnv interface {
	Env
	AtEvent(t sim.Time, ev sim.Event) sim.EventID
}

// closureEnv arms a plain Env's timers as closures, built once per connection.
type closureEnv struct {
	Env
	fns [3]func()
}

func (e *closureEnv) AtEvent(t sim.Time, ev sim.Event) sim.EventID { return e.At(t, e.fns[ev.Obj]) }

// Owner is the layer above a connection — the socket — told of its events.
// Every method runs in the simulation event context, from inside the Conn
// call (Input, a timer, Close, ...) that caused the event.
type Owner interface {
	// Connected reports the completed handshake.
	Connected()
	// CanRead reports new in-order data, or the peer's FIN.
	CanRead()
	// CanWrite reports send-buffer space freed by an ACK.
	CanWrite()
	// Closed reports the end of the connection: err is nil for an orderly
	// close, ErrReset or ErrTimeout otherwise.
	Closed(err error)
}

// Hooks are the callbacks of a standalone connection (NewClient, NewServer),
// which reports to them instead of to a socket; nil ones are skipped.
type Hooks struct {
	OnConnected, OnReadable, OnWritable func()
	OnClosed                            func(err error)
}

// hookOwner is Hooks as an Owner: a distinct method set, so that embedding
// *Hooks in Conn promotes the fields only.
type hookOwner Hooks

func (h *hookOwner) Connected() { call(h.OnConnected) }
func (h *hookOwner) CanRead()   { call(h.OnReadable) }
func (h *hookOwner) CanWrite()  { call(h.OnWritable) }
func (h *hookOwner) Closed(err error) {
	if h.OnClosed != nil {
		h.OnClosed(err)
	}
}

func call(fn func()) {
	if fn != nil {
		fn()
	}
}

// Config holds the tunables of the simulated stack.
type Config struct {
	MSS      int // maximum segment payload (default packet.MSS)
	SndBuf   int // send buffer bytes
	RcvBuf   int // receive buffer bytes (advertised window ceiling)
	InitCwnd int // initial congestion window in segments (IW10 per RFC 6928)

	MinRTO sim.Duration // the Incast knob: Linux's 200 ms default
	MaxRTO sim.Duration

	DelAckTimeout sim.Duration // delayed-ACK timer (Linux: ~40 ms)
	DelAckSegs    int          // ACK every n-th full segment (2)
}

// DefaultConfig returns Linux-like defaults.
func DefaultConfig() Config {
	return Config{
		MSS:           packet.MSS,
		SndBuf:        128 * 1024,
		RcvBuf:        85 * 1024, // Linux tcp_rmem default (87380)
		InitCwnd:      10,
		MinRTO:        200 * sim.Millisecond,
		MaxRTO:        120 * sim.Second,
		DelAckTimeout: 40 * sim.Millisecond,
		DelAckSegs:    2,
	}
}

// Validate checks and normalizes the configuration.
func (c *Config) Validate() error {
	if c.MSS <= 0 || c.MSS > packet.MSS {
		return fmt.Errorf("tcp: MSS %d out of range (0,%d]", c.MSS, packet.MSS)
	}
	if c.SndBuf < c.MSS || c.RcvBuf < c.MSS {
		return fmt.Errorf("tcp: buffers must hold at least one segment")
	}
	if c.InitCwnd <= 0 {
		return fmt.Errorf("tcp: InitCwnd must be positive")
	}
	if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
		return fmt.Errorf("tcp: bad RTO bounds [%v,%v]", c.MinRTO, c.MaxRTO)
	}
	if c.DelAckSegs <= 0 {
		c.DelAckSegs = 2
	}
	if c.DelAckTimeout <= 0 {
		c.DelAckTimeout = 40 * sim.Millisecond
	}
	return nil
}

// State is the connection state, a condensed TCP state machine.
type State uint8

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait   // we sent FIN, not yet acked or peer not done
	StateCloseWait // peer sent FIN, we have not closed yet
	StateLastAck   // peer closed, we sent FIN, awaiting ack
	StateTimeWait
)

var stateNames = [...]string{"closed", "syn-sent", "syn-rcvd", "established", "fin-wait", "close-wait", "last-ack", "time-wait"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Stats counts per-connection protocol events.
type Stats struct {
	SegsOut, SegsIn   uint64
	BytesOut, BytesIn uint64
	Retransmits       uint64
	FastRetransmits   uint64
	Timeouts          uint64
	DupAcksIn         uint64
}

// seqLT reports a < b in sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
