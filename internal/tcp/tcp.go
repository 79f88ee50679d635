// Package tcp implements a from-scratch TCP suitable for DIABLO's
// experiments: 3-way handshake, MSS segmentation, sliding windows, Reno/
// NewReno congestion control (slow start, congestion avoidance, fast
// retransmit and recovery), delayed ACKs, Jacobson RTT estimation, and an
// RTO with the configurable 200 ms Linux minimum that drives the TCP Incast
// throughput collapse (§4.1, [60]).
//
// The package is host-agnostic: a Conn talks to its kernel socket through
// the Host interface (timers, segment output, event callbacks), so the
// protocol logic is unit-testable over a loopback Env and the simulated
// kernel charges CPU costs around it.
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
// boundary queues reuse their storage, timers are sim.TimerEvent
// records (on an Env that schedules them), and Read appends to a buffer the
// caller reuses. A socket embeds its Conn and is its Host, so an endpoint is
// one heap object.
package tcp

import (
	"fmt"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Env is the host environment of a standalone connection (NewClient,
// NewServer). All methods are invoked from the simulation event context.
type Env interface {
	// Now returns the current simulated time.
	Now() sim.Time
	// At schedules a timer callback and returns its ID, never the zero one.
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
// does. A connection arms its timers as sim.TimerEvent records through one.
type eventEnv interface {
	Env
	AtEvent(t sim.Time, ev sim.Event) sim.EventID
}

// Owner is the layer above a connection told of its events. Every method
// runs in the simulation event context, from inside the Conn call (Input, a
// timer, Close, ...) that caused the event.
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

// Host is the one object a connection lives in and talks to — a kernel
// socket, which embeds its Conn: the Owner of its events and the
// environment its segments and timers go through.
type Host interface {
	eventEnv
	Owner
}

// Hooks are the callbacks of a standalone connection, which reports to them
// instead of to a socket; nil ones are skipped.
type Hooks struct {
	OnConnected, OnReadable, OnWritable func()
	OnClosed                            func(err error)
}

// standalone is the Host of a NewClient/NewServer connection, holding it
// with everything a socket would otherwise provide: the Env, the Hooks, a
// validated Config, the counters and Read's result buffer.
type standalone struct {
	conn Conn
	Env
	events eventEnv  // Env itself, when it schedules records
	fns    [3]func() // otherwise, the timers as closures
	hooks  Hooks
	cfg    Config
	stats  Stats
	msgs   []packet.Msg
	msgs0  [1]packet.Msg // msgs' first backing array
}

func (s *standalone) AtEvent(t sim.Time, ev sim.Event) sim.EventID {
	if s.events != nil {
		return s.events.AtEvent(t, ev)
	}
	return s.At(t, s.fns[ev.Obj])
}

func (s *standalone) Connected() { call(s.hooks.OnConnected) }
func (s *standalone) CanRead()   { call(s.hooks.OnReadable) }
func (s *standalone) CanWrite()  { call(s.hooks.OnWritable) }
func (s *standalone) Closed(err error) {
	if s.hooks.OnClosed != nil {
		s.hooks.OnClosed(err)
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

// maxBuf bounds the buffers and the initial window: a connection keeps its
// windows and byte counts in 32 bits.
const maxBuf = 1 << 30

// Validate checks and normalizes the configuration. A connection takes its
// Config validated: the kernel validates one per machine, and NewClient and
// NewServer their own copy.
func (c *Config) Validate() error {
	if c.MSS <= 0 || c.MSS > packet.MSS {
		return fmt.Errorf("tcp: MSS %d out of range (0,%d]", c.MSS, packet.MSS)
	}
	if c.SndBuf < c.MSS || c.RcvBuf < c.MSS || c.SndBuf > maxBuf || c.RcvBuf > maxBuf {
		return fmt.Errorf("tcp: buffers must hold at least one segment and at most %d bytes", maxBuf)
	}
	if c.InitCwnd <= 0 || c.InitCwnd > maxBuf/c.MSS {
		return fmt.Errorf("tcp: InitCwnd %d out of range (0,%d]", c.InitCwnd, maxBuf/c.MSS)
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

// Stats counts protocol events: a socket's connection adds them to its
// machine's totals, a standalone connection to its own.
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
