package tcp

import (
	"errors"
	"slices"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Errors surfaced through Owner.Closed.
var (
	ErrReset   = errors.New("tcp: connection reset by peer")
	ErrTimeout = errors.New("tcp: retransmission limit exceeded")
)

// How a connection ended, as the one-byte Conn.end: an index into ends.
const (
	endOrderly uint8 = iota
	endReset
	endTimeout
)

var ends = [...]error{endOrderly: nil, endReset: ErrReset, endTimeout: ErrTimeout}

// Retry limits (Linux tcp_retries2 / tcp_syn_retries).
const (
	maxDataRetries = 15
	maxSynRetries  = 6
	// initialRTO is the pre-measurement RTO (RFC 6298).
	initialRTO = sim.Second
)

// oooSeg is a buffered out-of-order segment.
type oooSeg struct {
	seq    uint32
	length int
	bounds segBounds
	fin    bool
}

// segBounds is the message boundaries one segment covers: none, one (in
// one, whose Msg.Kind is then non-zero) or several (many, the segment's
// Packet.Bounds).
type segBounds struct {
	one  packet.Bound
	many *[]packet.Bound
}

// boundsOf decodes the boundaries a received segment carries.
func boundsOf(pkt *packet.Packet) segBounds {
	if pkt.Bounds != nil {
		return segBounds{many: pkt.Bounds}
	}
	return segBounds{one: packet.Bound{EndSeq: pkt.TCP.EndSeq, Msg: pkt.Msg}}
}

// boundQueue holds boundaries in ascending EndSeq order. Retiring the due
// ones slides the rest down in place, so a steady message flow queues and
// retires boundaries without allocating; a queue holds at most a window's
// worth of messages, and usually one. Its first backing array is inline
// (Conn.Init points q at it).
type boundQueue struct {
	q     []packet.Bound
	first [1]packet.Bound
}

// due returns how many boundaries end at or before seq: they lead the queue.
func (b *boundQueue) due(seq uint32) int {
	n := 0
	for n < len(b.q) && seqLEQ(b.q[n].EndSeq, seq) {
		n++
	}
	return n
}

// drop removes the first n boundaries.
func (b *boundQueue) drop(n int) {
	if n > 0 {
		b.q = b.q[:copy(b.q, b.q[n:])]
	}
}

// insert files x by EndSeq, ignoring one already queued (a retransmission);
// boundaries nearly always arrive in order, so the scan starts at the back.
func (b *boundQueue) insert(x packet.Bound) {
	i := len(b.q)
	for i > 0 && seqLT(x.EndSeq, b.q[i-1].EndSeq) {
		i--
	}
	if i == 0 || b.q[i-1].EndSeq != x.EndSeq {
		b.q = slices.Insert(b.q, i, x)
	}
}

// Conn is one TCP connection endpoint. The zero Conn is inert: Init it in
// place, inside the Host that owns it.
type Conn struct {
	host Host
	// Hooks are a standalone connection's callbacks, nil on a socket's: its
	// fields are promoted, so callers set c.OnReadable and the like.
	*Hooks
	cfg *Config // validated, and shared with the host's other connections
	// Stats is where the connection counts: its machine's totals on a
	// socket, its own on a standalone connection.
	Stats *Stats

	Local, Remote packet.Addr

	// The 4- and 1-byte fields come first and together, so the struct packs:
	// a socket embeds its Conn, and TestTCPSocketSize holds the two to 512
	// bytes. Windows and byte counts are 32-bit, as Validate bounds the
	// buffers.

	// Send state. Sequence numbers: the SYN occupies seq 0; application
	// data starts at seq 1. sndEnd is the sequence after the last enqueued
	// byte; nxt is the next sequence to transmit; una is the oldest
	// unacknowledged sequence.
	una, nxt, sndEnd uint32
	maxSent          uint32 // highest sequence ever transmitted
	recover          uint32 // NewReno: the recovery point, while inRecovery
	finSeq           uint32
	rwnd             int32 // peer's advertised window
	cwnd, ssthresh   int32 // bytes
	dupacks          int32
	retries          int32

	// Receive state.
	rcvNxt      uint32
	readSeq     uint32 // application read cursor
	unread      int32  // in-order bytes not yet read
	delackCount int32

	rttSeq uint32 // the segment being timed, while rttPending

	state      State
	inRecovery bool
	finQueued  bool
	finSent    bool
	peerFin    bool // the peer's FIN arrived
	rttPending bool
	end        uint8 // how the connection ended, once closed

	sndBounds boundQueue
	rcvBounds boundQueue
	oooSegs   []oooSeg // out-of-order segments, ascending seq

	// RTT estimation (Jacobson/Karn).
	srtt, rttvar sim.Duration
	rto          sim.Duration
	rttStart     sim.Time

	// Timers, indexed by timerRTO, timerDelack and timerPersist; the zero
	// ID is a disarmed timer.
	timer [3]sim.EventID
}

// Init makes c a fresh endpoint from local to remote in host h, counting into
// stats: a client then calls Open, a server HandleSyn with the peer's SYN.
// cfg must be validated; it is shared, not copied, so it must not change
// while the connection lives.
func (c *Conn) Init(h Host, cfg *Config, stats *Stats, local, remote packet.Addr) {
	*c = Conn{
		host:     h,
		cfg:      cfg,
		Stats:    stats,
		Local:    local,
		Remote:   remote,
		sndEnd:   1, // data begins after the SYN
		rwnd:     int32(cfg.MSS),
		cwnd:     int32(cfg.InitCwnd * cfg.MSS),
		ssthresh: 1 << 30,
		rto:      max(initialRTO, cfg.MinRTO),
		readSeq:  1,
	}
	c.sndBounds.q, c.rcvBounds.q = c.sndBounds.first[:0], c.rcvBounds.first[:0]
}

// NewClient creates a standalone active-open endpoint that reports to its
// Hooks and counts in its own Stats; call Open to send the SYN.
func NewClient(env Env, cfg Config, local, remote packet.Addr) (*Conn, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &standalone{Env: env, cfg: cfg}
	c := &s.conn
	if e, ok := env.(eventEnv); ok { // asserted here, not per timer: a run-time type assertion may allocate
		s.events = e
	} else {
		t := (*timers)(c)
		s.fns = [3]func(){func() { t.Fire(0, timerRTO) }, func() { t.Fire(0, timerDelack) }, func() { t.Fire(0, timerPersist) }}
	}
	c.Init(s, &s.cfg, &s.stats, local, remote)
	c.Hooks, s.msgs = &s.hooks, s.msgs0[:0]
	return c, nil
}

// NewServer creates a standalone passive endpoint that reports to its Hooks;
// call HandleSyn with the peer's SYN.
func NewServer(env Env, cfg Config, local, remote packet.Addr) (*Conn, error) {
	return NewClient(env, cfg, local, remote)
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Err returns the terminal error, if any.
func (c *Conn) Err() error { return ends[c.end] }

// Open sends the initial SYN (client side).
func (c *Conn) Open() {
	if c.state != StateClosed {
		return
	}
	c.state = StateSynSent
	c.emit(0, 0, packet.FlagSYN, segBounds{})
	c.nxt, c.maxSent = 1, 1
	c.arm(timerRTO, c.rto)
}

// HandleSyn processes the peer's SYN on a passive endpoint.
func (c *Conn) HandleSyn(pkt *packet.Packet) {
	if c.state != StateClosed {
		return
	}
	c.Stats.SegsIn++
	c.rcvNxt = pkt.TCP.Seq + 1
	c.readSeq = c.rcvNxt // the application cursor starts at the first data byte
	c.rwnd = int32(pkt.TCP.Window)
	c.state = StateSynRcvd
	c.emit(0, 0, packet.FlagSYN|packet.FlagACK, segBounds{})
	c.nxt, c.maxSent = 1, 1
	c.arm(timerRTO, c.rto)
}

// --- application interface --------------------------------------------------

// Writable returns the free send-buffer space in bytes.
func (c *Conn) Writable() int {
	used := c.queuedFrom(c.una)
	if c.una == 0 { // SYN not yet acked: seq 0 occupied by SYN
		used--
	}
	return max(c.cfg.SndBuf-used, 0)
}

// Send enqueues up to n bytes for transmission and returns the bytes
// accepted. If all n bytes were accepted and msg is a message (non-nil, with
// a non-zero Kind), a boundary carrying a copy of *msg is attached to the
// last byte, to surface at the receiver when its in-order stream passes it.
func (c *Conn) Send(n int, msg *packet.Msg) int {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return 0
	}
	if c.finQueued {
		return 0
	}
	accept := min(n, c.Writable())
	if accept <= 0 {
		return 0
	}
	c.sndEnd += uint32(accept)
	if accept == n && msg != nil && msg.Kind != 0 {
		c.sndBounds.insert(packet.Bound{EndSeq: c.sndEnd, Msg: *msg})
	}
	c.trySend()
	return accept
}

// Readable returns the in-order bytes available to Read.
func (c *Conn) Readable() int { return int(c.unread) }

// EOF reports whether the peer has closed its direction and all data has
// been read.
func (c *Conn) EOF() bool { return c.peerFin && c.unread == 0 }

// ReadAppend consumes up to limit in-order bytes, returning the count and
// msgs with the application messages appended whose final byte falls within
// the consumed range.
func (c *Conn) ReadAppend(msgs []packet.Msg, limit int) (int, []packet.Msg) {
	n := min(int(c.unread), limit)
	wasSmall := c.rcvWindow() < c.cfg.MSS
	c.unread -= int32(n)
	c.readSeq += uint32(n)
	due := c.rcvBounds.due(c.readSeq)
	for _, b := range c.rcvBounds.q[:due] {
		msgs = append(msgs, b.Msg)
	}
	c.rcvBounds.drop(due)
	// Window update: if the advertised window was squeezed below an MSS and
	// reading reopened it, tell the peer.
	if n > 0 && wasSmall && c.rcvWindow() >= c.cfg.MSS && c.state == StateEstablished {
		c.sendAck()
	}
	return n, msgs
}

// Read is ReadAppend for a standalone connection: the message slice is the
// connection's own buffer, valid until its next Read.
func (c *Conn) Read(limit int) (int, []packet.Msg) {
	s := c.host.(*standalone)
	n, msgs := c.ReadAppend(s.msgs[:0], limit)
	s.msgs = msgs
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
	c.emit(c.nxt, 0, packet.FlagRST|packet.FlagACK, segBounds{})
	c.finish(endReset)
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
		c.finish(endReset)
		return
	}

	switch c.state {
	case StateSynSent:
		if hdr.Flags&(packet.FlagSYN|packet.FlagACK) == packet.FlagSYN|packet.FlagACK && hdr.Ack == 1 {
			c.rcvNxt = hdr.Seq + 1
			c.readSeq = c.rcvNxt
			c.rwnd = int32(hdr.Window)
			c.una = 1
			c.disarm(timerRTO)
			c.retries = 0
			c.rto = c.clampRTO(initialRTO)
			c.state = StateEstablished
			c.sendAck()
			c.host.Connected()
			c.trySend()
		}
		return
	case StateSynRcvd:
		if hdr.Flags&packet.FlagACK != 0 && hdr.Ack == 1 {
			c.una = 1
			c.disarm(timerRTO)
			c.retries = 0
			c.state = StateEstablished
			c.rwnd = int32(hdr.Window)
			c.host.Connected()
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
	c.rwnd = int32(hdr.Window)

	if seqLT(c.una, ackNo) && seqLEQ(ackNo, c.maxSent) {
		acked := int32(ackNo - c.una)

		// RTT sample (Karn: only when the timed segment was not
		// retransmitted).
		if c.rttPending && seqLT(c.rttSeq, ackNo) {
			c.updateRTT(c.host.Now().Sub(c.rttStart))
			c.rttPending = false
		}

		c.una = ackNo
		if seqLT(c.nxt, c.una) {
			// The ACK covers data we were about to retransmit (go-back-N
			// after a timeout): skip ahead.
			c.nxt = c.una
		}
		c.retries = 0
		c.sndBounds.drop(c.sndBounds.due(c.una))

		// Congestion control.
		mss := int32(c.cfg.MSS)
		if c.inRecovery {
			if seqLEQ(c.recover, ackNo) {
				// Full ACK: leave recovery.
				c.inRecovery = false
				c.dupacks = 0
				c.cwnd = c.ssthresh
			} else {
				// Partial ACK (NewReno): retransmit the next hole, deflate.
				c.retransmitHead()
				c.cwnd = max(c.cwnd-acked, mss) + mss
			}
		} else {
			c.dupacks = 0
			if c.cwnd < c.ssthresh {
				c.cwnd += min(acked, mss) // slow start with appropriate byte counting
			} else {
				c.cwnd += mss * mss / c.cwnd
			}
		}
		c.cwnd = min(c.cwnd, int32(c.cfg.SndBuf))

		// FIN accounting and state transitions.
		if c.finSent && seqLT(c.finSeq, ackNo) {
			switch c.state {
			case StateFinWait:
				if c.peerFin {
					c.enterTimeWait()
					return
				}
			case StateLastAck:
				c.finish(endOrderly)
				return
			}
		}

		c.disarm(timerRTO)
		if c.una != c.nxt {
			c.arm(timerRTO, c.rto)
		}
		if c.Writable() > 0 {
			c.host.CanWrite()
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
		mss := int32(c.cfg.MSS)
		if c.inRecovery {
			c.cwnd += mss
			c.trySend()
		} else if c.dupacks == 3 {
			c.ssthresh = max(c.flight()/2, 2*mss)
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
	bounds := boundsOf(pkt)
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
			if int(c.unread)+advance > c.cfg.RcvBuf {
				// No buffer space: drop, re-ACK with the (small) window.
				c.sendAck()
				return
			}
			c.rcvNxt = segEnd
			c.unread += int32(advance)
			c.Stats.BytesIn += uint64(advance)
			c.absorbBounds(bounds)
			c.absorbOOO()
			c.delackCount++
			if int(c.delackCount) >= c.cfg.DelAckSegs || len(c.oooSegs) > 0 || fin || c.peerFin {
				c.sendAck()
			} else {
				c.arm(timerDelack, c.cfg.DelAckTimeout)
			}
			if c.unread > 0 {
				c.host.CanRead()
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
	c.host.CanRead() // EOF is a readability event
}

// absorbBounds stores message boundaries (sorted, deduplicated). Boundaries
// at or below the application's read cursor were already delivered — they
// reappear when a retransmitted segment overlaps consumed data and must not
// be surfaced twice.
func (c *Conn) absorbBounds(sb segBounds) {
	if sb.one.Msg.Kind != 0 && seqLT(c.readSeq, sb.one.EndSeq) {
		c.rcvBounds.insert(sb.one)
	}
	if sb.many == nil {
		return
	}
	for _, b := range *sb.many {
		if seqLT(c.readSeq, b.EndSeq) {
			c.rcvBounds.insert(b)
		}
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
		c.unread += int32(seg.length)
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
func (c *Conn) rcvWindow() int { return max(c.cfg.RcvBuf-int(c.unread), 0) }

func (c *Conn) flight() int32 { return int32(c.nxt - c.una) }

// queuedFrom returns the enqueued sequence space from seq up to sndEnd, zero
// once seq has passed it.
func (c *Conn) queuedFrom(seq uint32) int {
	if seqLT(seq, c.sndEnd) {
		return int(c.sndEnd - seq)
	}
	return 0
}

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
		// Unsent data (nxt passes sndEnd once the FIN, which occupies a
		// sequence number, is emitted).
		if n := min(mss, c.queuedFrom(c.nxt), int(min(c.cwnd, c.rwnd)-c.flight())); n > 0 {
			c.emitData(c.nxt, n)
			c.advance(uint32(n))
			sent = true
			continue
		}
		if c.finQueued && !c.finSent && c.nxt == c.sndEnd {
			c.finSeq = c.nxt
			c.emit(c.nxt, 0, packet.FlagFIN|packet.FlagACK, segBounds{})
			c.advance(1)
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
		c.arm(timerRTO, c.rto)
	} else if seqLT(c.nxt, c.sndEnd) && c.rwnd == 0 {
		c.arm(timerPersist, c.rto)
	}
}

// advance moves nxt past n just-transmitted sequence numbers.
func (c *Conn) advance(n uint32) {
	if c.nxt += n; seqLT(c.maxSent, c.nxt) {
		c.maxSent = c.nxt
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
		c.rttStart = c.host.Now()
	}
}

// boundsIn returns the sender-side boundaries within (lo, hi]. Several are
// copied into a list the segment keeps once the queue reuses its storage:
// the data path's only allocation, made only for such a segment.
func (c *Conn) boundsIn(lo, hi uint32) segBounds {
	live := c.sndBounds.q
	i := 0
	for i < len(live) && seqLEQ(live[i].EndSeq, lo) {
		i++
	}
	j := i
	for j < len(live) && seqLEQ(live[j].EndSeq, hi) {
		j++
	}
	if j-i > 1 {
		many := slices.Clone(live[i:j])
		return segBounds{many: &many}
	} else if j-i == 1 {
		return segBounds{one: live[i]}
	}
	return segBounds{}
}

// retransmitHead resends the oldest unacknowledged segment.
func (c *Conn) retransmitHead() {
	c.Stats.Retransmits++
	c.rttPending = false // Karn's rule
	if n := min(c.queuedFrom(c.una), c.cfg.MSS); n > 0 {
		c.emit(c.una, n, packet.FlagACK, c.boundsIn(c.una, c.una+uint32(n)))
	} else if c.finSent && c.una == c.finSeq {
		c.emit(c.finSeq, 0, packet.FlagFIN|packet.FlagACK, segBounds{})
	}
	c.arm(timerRTO, c.rto)
}

// emit builds and transmits one segment.
func (c *Conn) emit(seq uint32, n int, flags packet.TCPFlags, bounds segBounds) {
	pkt := c.host.NewPacket()
	pkt.Src, pkt.Dst, pkt.Proto, pkt.PayloadBytes = c.Local, c.Remote, packet.ProtoTCP, n
	pkt.TCP = packet.TCPHdr{Flags: flags, Seq: seq, Ack: c.rcvNxt, Window: uint32(c.rcvWindow())}
	if bounds.many != nil {
		pkt.Bounds = bounds.many
	} else if bounds.one.Msg.Kind != 0 {
		pkt.Msg, pkt.TCP.EndSeq = bounds.one.Msg, bounds.one.EndSeq
	}
	c.Stats.SegsOut++
	c.host.Output(pkt)
}

// sendAck emits an immediate pure ACK.
func (c *Conn) sendAck() {
	c.cancelDelack()
	c.emit(c.nxt, 0, packet.FlagACK, segBounds{})
}

// --- timers -------------------------------------------------------------------

// The connection's timers, as numbered in their sim.TimerEvent records.
const (
	timerRTO uint32 = iota
	timerDelack
	timerPersist
)

// timers is the connection as the sim.Timer its timer records fire: a
// distinct method set keeps Fire off Conn's API.
type timers Conn

func (t *timers) Fire(_ sim.Time, which uint32) {
	c := (*Conn)(t)
	c.timer[which] = sim.EventID{}
	switch which {
	case timerRTO:
		c.onRTO()
	case timerDelack:
		if c.state != StateClosed {
			c.sendAck()
		}
	case timerPersist:
		c.onPersist()
	}
}

// arm schedules timer which d from now, unless it is already armed.
func (c *Conn) arm(which uint32, d sim.Duration) {
	if c.timer[which] != (sim.EventID{}) {
		return
	}
	c.timer[which] = c.host.AtEvent(c.host.Now().Add(d), sim.TimerEvent((*timers)(c), which))
}

// disarm cancels timer which if it is armed.
func (c *Conn) disarm(which uint32) {
	if c.timer[which] != (sim.EventID{}) {
		c.host.Cancel(c.timer[which])
		c.timer[which] = sim.EventID{}
	}
}

func (c *Conn) clampRTO(d sim.Duration) sim.Duration {
	return min(max(d, c.cfg.MinRTO), c.cfg.MaxRTO)
}

func (c *Conn) updateRTT(sample sim.Duration) {
	if sample < 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := max(c.srtt-sample, sample-c.srtt)
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.clampRTO(c.srtt + 4*c.rttvar)
}

// SRTT exposes the smoothed RTT estimate (for instrumentation).
func (c *Conn) SRTT() sim.Duration { return c.srtt }

// RTO exposes the current retransmission timeout (for instrumentation).
func (c *Conn) RTO() sim.Duration { return c.rto }

func (c *Conn) onRTO() {
	if c.state == StateClosed {
		return
	}
	c.Stats.Timeouts++
	c.retries++

	if c.state == StateSynSent || c.state == StateSynRcvd {
		if c.retries > maxSynRetries {
			c.finish(endTimeout)
			return
		}
		flags := packet.FlagSYN
		if c.state == StateSynRcvd {
			flags |= packet.FlagACK
		}
		c.emit(0, 0, flags, segBounds{})
		c.Stats.Retransmits++
		c.rto = c.clampRTO(c.rto * 2)
		c.arm(timerRTO, c.rto)
		return
	}

	if c.retries > maxDataRetries {
		c.finish(endTimeout)
		return
	}

	// Loss recovery by timeout: collapse to one segment and go back to the
	// oldest unacknowledged byte (the classic Incast stall). Regeneration
	// goes through the normal send path with cwnd = 1 MSS.
	c.ssthresh = max(c.flight()/2, 2*int32(c.cfg.MSS))
	c.cwnd = int32(c.cfg.MSS)
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
		c.arm(timerRTO, c.rto)
	}
}

func (c *Conn) cancelDelack() {
	c.disarm(timerDelack)
	c.delackCount = 0
}

func (c *Conn) onPersist() {
	if c.state != StateClosed && c.rwnd == 0 && seqLT(c.nxt, c.sndEnd) {
		// Zero-window probe: one byte beyond the window.
		c.emitData(c.nxt, 1)
		c.advance(1)
		c.arm(timerRTO, c.rto)
	}
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.finish(endOrderly)
}

// finish tears down the connection and reports how it ended.
func (c *Conn) finish(end uint8) {
	if c.state == StateClosed && c.end != endOrderly {
		return
	}
	c.state = StateClosed
	c.end = end
	c.disarm(timerRTO)
	c.cancelDelack()
	c.disarm(timerPersist)
	c.host.Closed(ends[end])
}
