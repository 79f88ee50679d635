package tcp

import (
	"errors"
	"slices"
	"sort"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Errors surfaced through OnClosed.
var (
	ErrReset   = errors.New("tcp: connection reset by peer")
	ErrTimeout = errors.New("tcp: retransmission limit exceeded")
)

// Retry limits (Linux tcp_retries2 / tcp_syn_retries).
const (
	maxDataRetries = 15
	maxSynRetries  = 6
	// initialRTO is the pre-measurement RTO (RFC 6298).
	initialRTO = sim.Second
)

type oooSeg struct {
	seq    uint32
	length int
	bounds []Boundary
	fin    bool
}

// Conn is one TCP connection endpoint.
//
//diablo:checkpoint-root
type Conn struct {
	//diablo:transient environment adapter; the owning socket re-binds it on restore
	env Env
	cfg Config

	Local, Remote packet.Addr

	state State

	// Send state. Sequence numbers: the SYN occupies seq 0; application
	// data starts at seq 1. sndEnd is the sequence after the last enqueued
	// byte; nxt is the next sequence to transmit; una is the oldest
	// unacknowledged sequence.
	una, nxt, sndEnd uint32
	maxSent          uint32 // highest sequence ever transmitted
	rwnd             int    // peer's advertised window
	cwnd, ssthresh   int    // bytes
	dupacks          int
	inRecovery       bool
	recover          uint32
	sndBounds        []Boundary
	finQueued        bool
	finSent          bool
	finSeq           uint32

	// RTT estimation (Jacobson/Karn).
	srtt, rttvar sim.Duration
	rto          sim.Duration
	rttPending   bool
	rttSeq       uint32
	rttStart     sim.Time
	retries      int

	// Timers.
	rtoTimer     sim.EventID
	rtoArmed     bool
	delackTimer  sim.EventID
	delackArmed  bool
	delackCount  int
	persistTimer sim.EventID
	persistArmed bool
	// One func value per timer, built on first arm: arming allocates nothing.
	//diablo:transient method values over the Conn itself; rebuilt on the first arm after restore
	rtoFn, delackFn, persistFn func()

	// Receive state.
	rcvNxt    uint32
	readSeq   uint32   // application read cursor
	unread    int      // in-order bytes not yet read
	oooSegs   []oooSeg // out-of-order segments, ascending seq
	rcvBounds []Boundary
	//diablo:transient opaque app messages; need a concrete-type registry (ROADMAP item 5)
	ready   []any // completed messages awaiting Read
	peerFin bool

	// Callbacks (any may be nil).
	//diablo:transient socket-layer hook; re-registered by the owning socket on restore
	OnConnected func()
	//diablo:transient socket-layer hook; re-registered by the owning socket on restore
	OnReadable func()
	//diablo:transient socket-layer hook; re-registered by the owning socket on restore
	OnWritable func()
	//diablo:transient socket-layer hook; re-registered by the owning socket on restore
	OnClosed func(err error)

	Stats Stats
	//diablo:transient one of a small closed error set; encodes as an errno-style code
	err error
}

func newConn(env Env, cfg Config, local, remote packet.Addr) (*Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Conn{
		env:      env,
		cfg:      cfg,
		Local:    local,
		Remote:   remote,
		una:      0,
		nxt:      0,
		sndEnd:   1, // data begins after the SYN
		rwnd:     cfg.MSS,
		cwnd:     cfg.InitCwnd * cfg.MSS,
		ssthresh: 1 << 30,
		rto:      initialRTO,
		rcvNxt:   0,
		readSeq:  1,
	}
	if c.rto < cfg.MinRTO {
		c.rto = cfg.MinRTO
	}
	return c, nil
}

// NewClient creates an active-open endpoint; call Open to send the SYN.
func NewClient(env Env, cfg Config, local, remote packet.Addr) (*Conn, error) {
	return newConn(env, cfg, local, remote)
}

// NewServer creates a passive endpoint for a received SYN; call HandleSyn
// with the SYN segment.
func NewServer(env Env, cfg Config, local, remote packet.Addr) (*Conn, error) {
	return newConn(env, cfg, local, remote)
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Err returns the terminal error, if any.
func (c *Conn) Err() error { return c.err }

// Open sends the initial SYN (client side).
func (c *Conn) Open() {
	if c.state != StateClosed {
		return
	}
	c.state = StateSynSent
	c.emit(0, 0, packet.FlagSYN, nil)
	c.nxt = 1
	c.maxSent = 1
	c.armRTO()
}

// HandleSyn processes the peer's SYN on a passive endpoint.
func (c *Conn) HandleSyn(pkt *packet.Packet) {
	if c.state != StateClosed {
		return
	}
	c.Stats.SegsIn++
	c.rcvNxt = pkt.TCP.Seq + 1
	c.readSeq = c.rcvNxt // the application cursor starts at the first data byte
	c.rwnd = int(pkt.TCP.Window)
	c.state = StateSynRcvd
	c.emit(0, 0, packet.FlagSYN|packet.FlagACK, nil)
	c.nxt = 1
	c.maxSent = 1
	c.armRTO()
}

// --- application interface --------------------------------------------------

// Writable returns the free send-buffer space in bytes.
func (c *Conn) Writable() int {
	used := 0
	if seqLT(c.una, c.sndEnd) {
		used = int(c.sndEnd - c.una)
	}
	if c.una == 0 { // SYN not yet acked: seq 0 occupied by SYN
		used--
	}
	free := c.cfg.SndBuf - used
	if free < 0 {
		free = 0
	}
	return free
}

// Send enqueues up to n bytes for transmission and returns the bytes
// accepted. If all n bytes were accepted and payload is non-nil, a message
// boundary carrying payload is attached to the last byte, to surface at the
// receiver when its in-order stream passes it.
func (c *Conn) Send(n int, payload any) int {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return 0
	}
	if c.finQueued {
		return 0
	}
	accept := n
	if free := c.Writable(); accept > free {
		accept = free
	}
	if accept <= 0 {
		return 0
	}
	c.sndEnd += uint32(accept)
	if accept == n && payload != nil {
		c.sndBounds = append(c.sndBounds, Boundary{EndSeq: c.sndEnd, Payload: payload})
	}
	c.trySend()
	return accept
}

// Readable returns the in-order bytes available to Read.
func (c *Conn) Readable() int { return c.unread }

// EOF reports whether the peer has closed its direction and all data has
// been read.
func (c *Conn) EOF() bool { return c.peerFin && c.unread == 0 }

// Read consumes up to max in-order bytes, returning the count and any
// application messages whose final byte falls within the consumed range.
func (c *Conn) Read(max int) (int, []any) {
	n := c.unread
	if n > max {
		n = max
	}
	wasSmall := c.rcvWindow() < c.cfg.MSS
	c.unread -= n
	c.readSeq += uint32(n)
	var msgs []any
	if len(c.ready) > 0 {
		msgs = c.ready
		c.ready = nil
	}
	for len(c.rcvBounds) > 0 && seqLEQ(c.rcvBounds[0].EndSeq, c.readSeq) {
		msgs = append(msgs, c.rcvBounds[0].Payload)
		c.rcvBounds = c.rcvBounds[1:]
	}
	// Window update: if the advertised window was squeezed below an MSS and
	// reading reopened it, tell the peer.
	if n > 0 && wasSmall && c.rcvWindow() >= c.cfg.MSS && c.state == StateEstablished {
		c.sendAck()
	}
	return n, msgs
}

// Close initiates an orderly shutdown: pending data is sent, then a FIN.
func (c *Conn) Close() {
	switch c.state {
	case StateClosed, StateFinWait, StateLastAck, StateTimeWait:
		return
	case StateSynSent, StateSynRcvd:
		c.Abort()
		return
	}
	c.finQueued = true
	c.trySend()
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.emit(c.nxt, 0, packet.FlagRST|packet.FlagACK, nil)
	c.finish(ErrReset)
}

// --- segment input -----------------------------------------------------------

// Input processes a received segment. The host kernel demultiplexes by
// 4-tuple and charges RX CPU costs before calling this.
func (c *Conn) Input(pkt *packet.Packet) {
	if c.state == StateClosed {
		return
	}
	c.Stats.SegsIn++
	hdr := pkt.TCP

	if hdr.Flags&packet.FlagRST != 0 {
		c.finish(ErrReset)
		return
	}

	switch c.state {
	case StateSynSent:
		if hdr.Flags&(packet.FlagSYN|packet.FlagACK) == packet.FlagSYN|packet.FlagACK && hdr.Ack == 1 {
			c.rcvNxt = hdr.Seq + 1
			c.readSeq = c.rcvNxt
			c.rwnd = int(hdr.Window)
			c.una = 1
			c.disarmRTO()
			c.retries = 0
			c.rto = c.clampRTO(initialRTO)
			c.state = StateEstablished
			c.sendAck()
			if c.OnConnected != nil {
				c.OnConnected()
			}
			c.trySend()
		}
		return
	case StateSynRcvd:
		if hdr.Flags&packet.FlagACK != 0 && hdr.Ack == 1 {
			c.una = 1
			c.disarmRTO()
			c.retries = 0
			c.state = StateEstablished
			c.rwnd = int(hdr.Window)
			if c.OnConnected != nil {
				c.OnConnected()
			}
			// Fall through: the ACK may carry data.
		} else {
			return
		}
	}

	if hdr.Flags&packet.FlagACK != 0 {
		c.processAck(pkt)
	}
	if c.state == StateClosed {
		return
	}
	if pkt.PayloadBytes > 0 || hdr.Flags&packet.FlagFIN != 0 {
		c.processData(pkt)
	}
}

func (c *Conn) processAck(pkt *packet.Packet) {
	hdr := pkt.TCP
	ackNo := hdr.Ack
	oldRwnd := c.rwnd
	c.rwnd = int(hdr.Window)

	if seqLT(c.una, ackNo) && seqLEQ(ackNo, c.maxSent) {
		acked := int(ackNo - c.una)

		// RTT sample (Karn: only when the timed segment was not
		// retransmitted).
		if c.rttPending && seqLT(c.rttSeq, ackNo) {
			c.updateRTT(c.env.Now().Sub(c.rttStart))
			c.rttPending = false
		}

		c.una = ackNo
		if seqLT(c.nxt, c.una) {
			// The ACK covers data we were about to retransmit (go-back-N
			// after a timeout): skip ahead.
			c.nxt = c.una
		}
		c.retries = 0
		c.pruneSndBounds()

		// Congestion control.
		mss := c.cfg.MSS
		if c.inRecovery {
			if seqLEQ(c.recover, ackNo) {
				// Full ACK: leave recovery.
				c.inRecovery = false
				c.dupacks = 0
				c.cwnd = c.ssthresh
			} else {
				// Partial ACK (NewReno): retransmit the next hole, deflate.
				c.retransmitHead()
				c.cwnd -= acked
				if c.cwnd < mss {
					c.cwnd = mss
				}
				c.cwnd += mss
			}
		} else {
			c.dupacks = 0
			if c.cwnd < c.ssthresh {
				// Slow start with appropriate byte counting.
				inc := acked
				if inc > mss {
					inc = mss
				}
				c.cwnd += inc
			} else {
				c.cwnd += mss * mss / c.cwnd
			}
		}
		if c.cwnd > c.cfg.SndBuf {
			c.cwnd = c.cfg.SndBuf
		}

		// FIN accounting and state transitions.
		if c.finSent && seqLT(c.finSeq, ackNo) {
			switch c.state {
			case StateFinWait:
				if c.peerFin {
					c.enterTimeWait()
					return
				}
			case StateLastAck:
				c.finish(nil)
				return
			}
		}

		if c.una == c.nxt {
			c.disarmRTO()
		} else {
			c.rearmRTO()
		}
		if c.OnWritable != nil && c.Writable() > 0 {
			c.OnWritable()
		}
		c.trySend()
		return
	}

	// Duplicate ACK detection (RFC 5681: same ack, no data, window
	// unchanged, outstanding data).
	if ackNo == c.una && pkt.PayloadBytes == 0 &&
		hdr.Flags&(packet.FlagSYN|packet.FlagFIN) == 0 &&
		c.rwnd == oldRwnd && c.flight() > 0 {
		c.Stats.DupAcksIn++
		c.dupacks++
		mss := c.cfg.MSS
		if c.inRecovery {
			c.cwnd += mss
			c.trySend()
		} else if c.dupacks == 3 {
			c.ssthresh = c.flight() / 2
			if c.ssthresh < 2*mss {
				c.ssthresh = 2 * mss
			}
			c.cwnd = c.ssthresh + 3*mss
			c.inRecovery = true
			c.recover = c.nxt
			c.Stats.FastRetransmits++
			c.retransmitHead()
		}
		return
	}

	// Window update may unblock sending.
	if c.rwnd > oldRwnd {
		c.trySend()
	}
}

func (c *Conn) processData(pkt *packet.Packet) {
	hdr := pkt.TCP
	seq := hdr.Seq
	length := pkt.PayloadBytes
	bounds, _ := pkt.Payload.([]Boundary)
	fin := hdr.Flags&packet.FlagFIN != 0
	segEnd := seq + uint32(length)

	if length > 0 && seqLEQ(segEnd, c.rcvNxt) && !fin {
		// Entirely old data (retransmission already received): re-ACK.
		c.sendAck()
		return
	}

	if length > 0 {
		switch {
		case seqLEQ(seq, c.rcvNxt) && seqLT(c.rcvNxt, segEnd):
			// In-order (possibly with an old prefix).
			advance := int(segEnd - c.rcvNxt)
			if c.unread+advance > c.cfg.RcvBuf {
				// No buffer space: drop, re-ACK with the (small) window.
				c.sendAck()
				return
			}
			c.rcvNxt = segEnd
			c.unread += advance
			c.Stats.BytesIn += uint64(advance)
			c.absorbBounds(bounds)
			c.absorbOOO()
			c.delackCount++
			if c.delackCount >= c.cfg.DelAckSegs || len(c.oooSegs) > 0 || fin || c.peerFin {
				c.sendAck()
			} else {
				c.armDelack()
			}
			if c.OnReadable != nil && c.unread > 0 {
				c.OnReadable()
			}
		case seqLT(c.rcvNxt, seq):
			// Out of order: buffer if within the advertised window, and
			// duplicate-ACK either way.
			if int(segEnd-c.rcvNxt) <= c.rcvWindow() {
				c.bufferOOO(oooSeg{seq: seq, length: length, bounds: bounds, fin: fin})
			}
			c.sendAck()
			return
		}
	}

	if fin {
		finSeq := segEnd
		if !c.peerFin && c.rcvNxt == finSeq {
			c.acceptFin()
		}
		// An out-of-order FIN was already buffered with its segment above.
		if length == 0 && seqLT(c.rcvNxt, finSeq) {
			// FIN beyond a hole with no data (rare): record as ooo marker.
			c.bufferOOO(oooSeg{seq: seq, fin: true})
			c.sendAck()
		}
	}
}

func (c *Conn) acceptFin() {
	c.peerFin = true
	c.rcvNxt++
	c.sendAck()
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait:
		if c.finSent && seqLT(c.finSeq, c.una) {
			c.enterTimeWait()
			return
		}
	}
	if c.OnReadable != nil {
		c.OnReadable() // EOF is a readability event
	}
}

// absorbBounds stores message boundaries (sorted, deduplicated). Boundaries
// at or below the application's read cursor were already delivered — they
// reappear when a retransmitted segment overlaps consumed data and must not
// be surfaced twice.
func (c *Conn) absorbBounds(bounds []Boundary) {
	for _, b := range bounds {
		if seqLEQ(b.EndSeq, c.readSeq) {
			continue
		}
		i := sort.Search(len(c.rcvBounds), func(i int) bool {
			return !seqLT(c.rcvBounds[i].EndSeq, b.EndSeq)
		})
		if i < len(c.rcvBounds) && c.rcvBounds[i].EndSeq == b.EndSeq {
			continue // retransmitted boundary
		}
		c.rcvBounds = append(c.rcvBounds, Boundary{})
		copy(c.rcvBounds[i+1:], c.rcvBounds[i:])
		c.rcvBounds[i] = b
	}
}

// bufferOOO files an out-of-order segment by sequence number; one starting
// where a buffered segment does is a retransmission and is ignored.
func (c *Conn) bufferOOO(seg oooSeg) {
	i := len(c.oooSegs)
	for i > 0 && seqLT(seg.seq, c.oooSegs[i-1].seq) {
		i--
	}
	if i == 0 || c.oooSegs[i-1].seq != seg.seq {
		c.oooSegs = slices.Insert(c.oooSegs, i, seg)
	}
}

// absorbOOO pulls buffered out-of-order segments that are now in order, and
// purges stale ones left behind when differently-aligned in-order data
// advanced past a buffered segment's start; any uncovered tail is
// regenerated by the sender's go-back-N retransmission.
func (c *Conn) absorbOOO() {
	for len(c.oooSegs) > 0 && seqLEQ(c.oooSegs[0].seq, c.rcvNxt) {
		seg := c.oooSegs[0]
		c.oooSegs = slices.Delete(c.oooSegs, 0, 1)
		if seg.seq != c.rcvNxt {
			continue
		}
		c.rcvNxt += uint32(seg.length)
		c.unread += seg.length
		c.absorbBounds(seg.bounds)
		if seg.fin && !c.peerFin {
			c.acceptFin()
		}
	}
}

// --- segment output ----------------------------------------------------------

// rcvWindow computes the advertised receive window: how far beyond rcvNxt
// the peer may send. Out-of-order bytes already occupy sequence space inside
// this window, so they do not shrink it (only unread in-order data does).
func (c *Conn) rcvWindow() int {
	w := c.cfg.RcvBuf - c.unread
	if w < 0 {
		w = 0
	}
	return w
}

func (c *Conn) flight() int { return int(c.nxt - c.una) }

// trySend transmits whatever the congestion and peer windows allow.
func (c *Conn) trySend() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait, StateLastAck:
	default:
		return
	}
	mss := c.cfg.MSS
	sent := false
	for {
		// Unsent data. Note nxt passes sndEnd once the FIN is emitted (the
		// FIN occupies a sequence number), so guard against underflow.
		avail := 0
		if seqLT(c.nxt, c.sndEnd) {
			avail = int(c.sndEnd - c.nxt)
		}
		wnd := c.cwnd
		if c.rwnd < wnd {
			wnd = c.rwnd
		}
		room := wnd - c.flight()
		n := mss
		if avail < n {
			n = avail
		}
		if room < n {
			n = room
		}
		if n > 0 {
			c.emitData(c.nxt, n)
			c.nxt += uint32(n)
			if seqLT(c.maxSent, c.nxt) {
				c.maxSent = c.nxt
			}
			sent = true
			continue
		}
		if c.finQueued && !c.finSent && c.nxt == c.sndEnd {
			c.finSeq = c.nxt
			c.emit(c.nxt, 0, packet.FlagFIN|packet.FlagACK, nil)
			c.nxt++
			if seqLT(c.maxSent, c.nxt) {
				c.maxSent = c.nxt
			}
			c.finSent = true
			sent = true
			switch c.state {
			case StateEstablished:
				c.state = StateFinWait
			case StateCloseWait:
				c.state = StateLastAck
			}
			continue
		}
		break
	}
	if sent {
		c.cancelDelack() // data segments carry the ACK
	}
	if c.flight() > 0 {
		c.armRTO()
	} else if seqLT(c.nxt, c.sndEnd) && c.rwnd == 0 {
		c.armPersist()
	}
}

// emitData sends one data segment [seq, seq+n).
func (c *Conn) emitData(seq uint32, n int) {
	if seqLT(c.sndEnd, seq+uint32(n)) {
		panic("tcp: emitting beyond sndEnd")
	}
	bounds := c.boundsIn(seq, seq+uint32(n))
	c.emit(seq, n, packet.FlagACK, bounds)
	c.Stats.BytesOut += uint64(n)
	if !c.rttPending {
		c.rttPending = true
		c.rttSeq = seq
		c.rttStart = c.env.Now()
	}
}

// boundsIn returns the sender-side boundaries within (lo, hi].
func (c *Conn) boundsIn(lo, hi uint32) []Boundary {
	var out []Boundary
	for _, b := range c.sndBounds {
		if seqLT(lo, b.EndSeq) && seqLEQ(b.EndSeq, hi) {
			out = append(out, b)
		}
	}
	return out
}

func (c *Conn) pruneSndBounds() {
	i := 0
	for i < len(c.sndBounds) && seqLEQ(c.sndBounds[i].EndSeq, c.una) {
		i++
	}
	c.sndBounds = c.sndBounds[i:]
}

// retransmitHead resends the oldest unacknowledged segment.
func (c *Conn) retransmitHead() {
	c.Stats.Retransmits++
	c.rttPending = false // Karn's rule
	n := 0
	if seqLT(c.una, c.sndEnd) {
		n = int(c.sndEnd - c.una)
	}
	if n > c.cfg.MSS {
		n = c.cfg.MSS
	}
	if n > 0 {
		bounds := c.boundsIn(c.una, c.una+uint32(n))
		c.emit(c.una, n, packet.FlagACK, bounds)
	} else if c.finSent && c.una == c.finSeq {
		c.emit(c.finSeq, 0, packet.FlagFIN|packet.FlagACK, nil)
	}
	c.armRTO()
}

// emit builds and transmits one segment.
func (c *Conn) emit(seq uint32, n int, flags packet.TCPFlags, bounds []Boundary) {
	var payload any
	if len(bounds) > 0 {
		payload = bounds
	}
	wnd := c.rcvWindow()
	pkt := c.env.NewPacket()
	pkt.Src = c.Local
	pkt.Dst = c.Remote
	pkt.Proto = packet.ProtoTCP
	pkt.PayloadBytes = n
	pkt.Payload = payload
	pkt.TCP = packet.TCPHdr{
		Flags:  flags,
		Seq:    seq,
		Ack:    c.rcvNxt,
		Window: uint32(wnd),
	}
	c.Stats.SegsOut++
	c.env.Output(pkt)
}

// sendAck emits an immediate pure ACK.
func (c *Conn) sendAck() {
	c.cancelDelack()
	c.delackCount = 0
	c.emit(c.nxt, 0, packet.FlagACK, nil)
}

// --- timers -------------------------------------------------------------------

func (c *Conn) clampRTO(d sim.Duration) sim.Duration {
	if d < c.cfg.MinRTO {
		d = c.cfg.MinRTO
	}
	if d > c.cfg.MaxRTO {
		d = c.cfg.MaxRTO
	}
	return d
}

func (c *Conn) updateRTT(sample sim.Duration) {
	if sample < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.clampRTO(c.srtt + 4*c.rttvar)
}

// SRTT exposes the smoothed RTT estimate (for instrumentation).
func (c *Conn) SRTT() sim.Duration { return c.srtt }

// RTO exposes the current retransmission timeout (for instrumentation).
func (c *Conn) RTO() sim.Duration { return c.rto }

func (c *Conn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	if c.rtoFn == nil {
		c.rtoFn = c.onRTO
	}
	c.rtoTimer = c.env.At(c.env.Now().Add(c.rto), c.rtoFn)
}

func (c *Conn) rearmRTO() {
	c.disarmRTO()
	c.armRTO()
}

func (c *Conn) disarmRTO() {
	if c.rtoArmed {
		c.env.Cancel(c.rtoTimer)
		c.rtoArmed = false
	}
}

func (c *Conn) onRTO() {
	c.rtoArmed = false
	if c.state == StateClosed {
		return
	}
	c.Stats.Timeouts++
	c.retries++

	switch c.state {
	case StateSynSent:
		if c.retries > maxSynRetries {
			c.finish(ErrTimeout)
			return
		}
		c.emit(0, 0, packet.FlagSYN, nil)
		c.Stats.Retransmits++
		c.rto = c.clampRTO(c.rto * 2)
		c.armRTO()
		return
	case StateSynRcvd:
		if c.retries > maxSynRetries {
			c.finish(ErrTimeout)
			return
		}
		c.emit(0, 0, packet.FlagSYN|packet.FlagACK, nil)
		c.Stats.Retransmits++
		c.rto = c.clampRTO(c.rto * 2)
		c.armRTO()
		return
	}

	if c.retries > maxDataRetries {
		c.finish(ErrTimeout)
		return
	}

	// Loss recovery by timeout: collapse to one segment and go back to the
	// oldest unacknowledged byte (the classic Incast stall). Regeneration
	// goes through the normal send path with cwnd = 1 MSS.
	mss := c.cfg.MSS
	c.ssthresh = c.flight() / 2
	if c.ssthresh < 2*mss {
		c.ssthresh = 2 * mss
	}
	c.cwnd = mss
	c.inRecovery = false
	c.dupacks = 0
	c.nxt = c.una
	if c.finSent && seqLEQ(c.una, c.finSeq) {
		c.finSent = false // regenerate the FIN after the data
	}
	c.rto = c.clampRTO(c.rto * 2)
	c.rttPending = false // Karn's rule
	c.Stats.Retransmits++
	c.trySend()
	if c.flight() > 0 {
		c.armRTO()
	}
}

func (c *Conn) armDelack() {
	if c.delackArmed {
		return
	}
	c.delackArmed = true
	if c.delackFn == nil {
		c.delackFn = c.onDelack
	}
	c.delackTimer = c.env.At(c.env.Now().Add(c.cfg.DelAckTimeout), c.delackFn)
}

func (c *Conn) onDelack() {
	c.delackArmed = false
	if c.state != StateClosed {
		c.sendAck()
	}
}

func (c *Conn) cancelDelack() {
	if c.delackArmed {
		c.env.Cancel(c.delackTimer)
		c.delackArmed = false
	}
	c.delackCount = 0
}

func (c *Conn) armPersist() {
	if c.persistArmed {
		return
	}
	c.persistArmed = true
	if c.persistFn == nil {
		c.persistFn = c.onPersist
	}
	c.persistTimer = c.env.At(c.env.Now().Add(c.rto), c.persistFn)
}

func (c *Conn) onPersist() {
	c.persistArmed = false
	if c.state == StateClosed {
		return
	}
	if c.rwnd == 0 && seqLT(c.nxt, c.sndEnd) {
		// Zero-window probe: one byte beyond the window.
		c.emitData(c.nxt, 1)
		c.nxt++
		if seqLT(c.maxSent, c.nxt) {
			c.maxSent = c.nxt
		}
		c.armRTO()
	}
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.finish(nil)
}

// finish tears down the connection and reports err (nil for orderly close).
func (c *Conn) finish(err error) {
	if c.state == StateClosed && c.err != nil {
		return
	}
	c.state = StateClosed
	c.err = err
	c.disarmRTO()
	c.cancelDelack()
	if c.persistArmed {
		c.env.Cancel(c.persistTimer)
		c.persistArmed = false
	}
	if c.OnClosed != nil {
		c.OnClosed(err)
	}
}
