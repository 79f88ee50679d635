package kernel

import (
	"errors"
	"fmt"
	"slices"

	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
)

// Socket-layer errors.
var (
	ErrPortInUse   = errors.New("kernel: port in use")
	ErrWouldBlock  = errors.New("kernel: operation would block")
	ErrClosed      = errors.New("kernel: socket closed")
	ErrConnRefused = errors.New("kernel: connection refused")
	ErrMsgTooLong  = errors.New("kernel: datagram exceeds maximum size")
)

// MaxDatagram is the largest UDP datagram the stack accepts (fragmented
// across MTU-sized packets on the wire, like IP fragmentation).
const MaxDatagram = 64 * 1024

// --- epoll -------------------------------------------------------------------

// EpollEvents is a readiness bitmask.
type EpollEvents uint8

// Readiness bits.
const (
	EpollIn EpollEvents = 1 << iota
	EpollOut
	EpollHup
)

// Pollable is a socket that can be registered with an Epoll instance.
type Pollable interface {
	readyMask() EpollEvents
	epolls() *epollSet
}

// epollSet is the epoll instances a socket is registered with, in
// registration order. The first instance and the first registration record
// live inline, like waitQueue's first waiter: registering a socket with one
// instance allocates nothing.
type epollSet struct {
	eps   []*Epoll
	first [1]*Epoll
	item  epollItem
}

// newItem returns storage for a registration: the inline record unless an
// instance still holds it, registered or left behind on a ready list.
func (w *epollSet) newItem() *epollItem {
	if w.item.sock != nil || w.item.inReady {
		return new(epollItem)
	}
	return &w.item
}

func (w *epollSet) add(ep *Epoll) {
	if w.eps == nil {
		w.eps = w.first[:0]
	}
	w.eps = append(w.eps, ep)
}

func (w *epollSet) remove(ep *Epoll) {
	w.eps = slices.DeleteFunc(w.eps, func(e *Epoll) bool { return e == ep })
}

// notify reports a readiness edge of sock to every instance.
func (w *epollSet) notify(sock Pollable) {
	for _, ep := range w.eps {
		ep.markReady(sock)
	}
}

// EpollEvent is one ready notification from Epoll.Wait.
type EpollEvent struct {
	Sock   Pollable
	Events EpollEvents
	Data   uint64 // the registration's cookie, like Linux's epoll_data.u64
}

type epollItem struct {
	sock     Pollable
	data     uint64
	interest EpollEvents
	inReady  bool
}

// Epoll is a level-triggered readiness multiplexer, the syscall interface
// the paper contrasts with blocking pthread sockets (§4.1): applications
// using it "proactively poll the kernel for available data".
type Epoll struct {
	m     *Machine
	items map[Pollable]*epollItem
	// ready: level-triggered re-queues make this the allocation hot spot of
	// epoll servers unless its storage is reused.
	ready   sim.FIFO[*epollItem]
	waiters waitQueue
	kicked  bool
}

// EpollCreate makes a new epoll instance (epoll_create1).
func (t *Thread) EpollCreate() *Epoll {
	return t.enter(opEpollCreate, func(*threadOp) {}).Epoll
}

// Add registers a socket with an interest mask and a cookie that its events
// carry (epoll_ctl).
func (ep *Epoll) Add(t *Thread, sock Pollable, interest EpollEvents, data uint64) {
	t.enter(opEpollAdd, func(op *threadOp) { op.ep, op.reg = ep, epollItem{sock: sock, interest: interest, data: data} })
}

// Del removes the socket's registration as of the call (EPOLL_CTL_DEL).
func (ep *Epoll) Del(t *Thread, sock Pollable) {
	t.enter(opEpollDel, func(op *threadOp) { op.ep, op.item = ep, ep.items[sock] })
}

func (ep *Epoll) add(reg epollItem) {
	if _, dup := ep.items[reg.sock]; dup {
		return
	}
	w := reg.sock.epolls()
	it := w.newItem()
	*it = reg
	ep.items[reg.sock] = it
	w.add(ep)
	ep.markReady(reg.sock) // pick up already-ready state (level-triggered)
}

func (ep *Epoll) del(it *epollItem) {
	if it != nil && it.sock != nil {
		delete(ep.items, it.sock)
		it.sock.epolls().remove(ep)
		it.sock = nil // lazily skipped in the ready list
	}
}

// Kick forces the next (or a currently blocked) Wait to return, even with no
// ready sockets — the moral equivalent of writing to a self-pipe registered
// with the epoll instance, as multi-threaded servers do for cross-thread
// notification.
func (ep *Epoll) Kick() {
	ep.kicked = true
	ep.waiters.wakeOne(ep.m)
}

// markReady is called by sockets on readiness edges.
func (ep *Epoll) markReady(sock Pollable) {
	it, ok := ep.items[sock]
	if !ok || it.inReady {
		return
	}
	if it.sock.readyMask()&it.interest == 0 {
		return
	}
	it.inReady = true
	ep.ready.Push(it)
	ep.waiters.wakeOne(ep.m)
}

// Wait blocks until at least one registered socket is ready, returning up to
// maxEvents (epoll_wait). A negative timeout waits forever; zero polls. The
// result lives in the calling thread's reusable buffer: like the real
// epoll_wait events array it is valid until that thread's next Wait, whoever
// else waits on this instance meanwhile.
func (ep *Epoll) Wait(t *Thread, maxEvents int, timeout sim.Duration) []EpollEvent {
	if maxEvents <= 0 {
		maxEvents = 64
	}
	return t.enter(opEpollWait, func(op *threadOp) {
		op.ep, op.extra, op.n = ep, ep.m.cfg.Profile.EpollInstr, maxEvents
		op.timeout, op.timed, op.nowait = timeout, timeout > 0, timeout == 0
	}).Events
}

func (ep *Epoll) pollWait(t *Thread, op *threadOp) (*waitQueue, bool) {
	out := t.evbuf[:0]
	// Harvest the ready list (level-triggered: items still ready are
	// re-queued).
	for i, n := 0, ep.ready.Len(); i < n && len(out) < op.n; i++ {
		it := ep.ready.Pop()
		it.inReady = false
		if it.sock == nil {
			continue // deleted
		}
		mask := it.sock.readyMask() & it.interest
		if mask == 0 {
			continue
		}
		out = append(out, EpollEvent{Sock: it.sock, Events: mask, Data: it.data})
		// Still ready: keep it visible for the next Wait.
		it.inReady = true
		ep.ready.Push(it)
	}
	t.evbuf = out
	switch {
	case len(out) > 0:
		t.res.Events = out
		// Charge the per-event dispatch cost.
		t.remaining += ep.m.instrTime(int64(len(out)) * ep.m.cfg.Profile.EpollInstr / 4)
	case ep.kicked:
		ep.kicked = false
	case op.expired(ep.m.eng.Now()):
	default:
		return &ep.waiters, false
	}
	return nil, true
}

// WaitForever is the infinite epoll timeout.
const WaitForever sim.Duration = -1

// --- UDP ----------------------------------------------------------------------

// udpDgram is one reassembled datagram in a socket's receive queue.
type udpDgram struct {
	from  packet.Addr
	bytes int
	msg   packet.Msg
}

type fragKey struct {
	from packet.Addr
	id   uint64
}

// UDPStats counts socket-level events.
type UDPStats struct {
	TxDatagrams, RxDatagrams uint64
	RxDropsFull              uint64
}

// UDPSocket is a bound datagram socket.
type UDPSocket struct {
	m    *Machine
	port packet.Port

	rcvq     sim.FIFO[udpDgram]
	rcvBytes int

	frags map[fragKey]int // fragments received of each datagram in reassembly

	readers  waitQueue
	watchers epollSet
	closed   bool
	nextFrag uint64

	Stats UDPStats
}

// UDPSocket creates and binds a datagram socket. Port 0 picks an ephemeral
// port.
func (t *Thread) UDPSocket(port packet.Port) (*UDPSocket, error) {
	r := t.enter(opUDPSocket, func(op *threadOp) { op.port = port })
	return r.UDP, r.v.err
}

func (m *Machine) bindUDP(port packet.Port) (*UDPSocket, error) {
	if port == 0 {
		port = m.ephemeralPort()
	}
	if _, dup := m.udpSocks[port]; dup {
		return nil, fmt.Errorf("%w: udp %d", ErrPortInUse, port)
	}
	s := &UDPSocket{m: m, port: port, frags: make(map[fragKey]int)}
	m.udpSocks[port] = s
	return s, nil
}

// SendTo transmits one datagram of n bytes to dst, carrying msg by value to
// the receiver.
func (s *UDPSocket) SendTo(t *Thread, dst packet.Addr, n int, msg packet.Msg) error {
	if s.closed {
		return ErrClosed
	}
	if n <= 0 || n > MaxDatagram {
		return ErrMsgTooLong
	}
	t.enter(opSendTo, func(op *threadOp) {
		op.udp, op.extra, op.n, op.remote, op.msg = s, s.m.cfg.Profile.TxUDPInstr, n, dst, msg
	})
	return nil
}

// pollSend transmits the datagram once the entry charge is paid, a
// fragment per pass: each after the first goes out once its own charge is paid.
func (s *UDPSocket) pollSend(t *Thread, op *threadOp) bool {
	m := s.m
	if op.pkt != nil {
		m.transmit(op.pkt)
		op.pkt = nil
	}
	if op.id == 0 {
		s.Stats.TxDatagrams++
		s.nextFrag++
		op.id = s.nextFrag
	}
	total := (op.n + packet.MaxUDPPayload - 1) / packet.MaxUDPPayload
	for ; op.frag < total; op.frag++ {
		i := op.frag
		pkt := m.newPacket()
		pkt.Src = packet.Addr{Node: m.node, Port: s.port}
		pkt.Dst = op.remote
		pkt.Proto = packet.ProtoUDP
		pkt.PayloadBytes = min(op.n-i*packet.MaxUDPPayload, packet.MaxUDPPayload)
		// The fragment descriptor rides in the typed UDP header, and the
		// message on the final fragment only.
		pkt.UDP = packet.UDPHdr{FragID: op.id, Index: uint16(i), Total: uint16(total), Bytes: op.n}
		if i == total-1 {
			pkt.Msg = op.msg
		}
		if i > 0 { // fragments beyond the first cost a reduced per-packet TX charge
			op.pkt, op.frag = pkt, i+1
			t.remaining += m.cost.txUDPHalf
			return false
		}
		m.transmit(pkt)
	}
	return true
}

// RecvFrom blocks until a datagram arrives, then returns its source, size
// and message.
func (s *UDPSocket) RecvFrom(t *Thread) (packet.Addr, int, packet.Msg, error) {
	return s.recv(t, -1, false)
}

// RecvFromTimeout is RecvFrom with a receive deadline (SO_RCVTIMEO): it
// returns ErrWouldBlock if no datagram arrives within d.
func (s *UDPSocket) RecvFromTimeout(t *Thread, d sim.Duration) (packet.Addr, int, packet.Msg, error) {
	return s.recv(t, d, false)
}

// TryRecv is the non-blocking variant (MSG_DONTWAIT), for epoll users.
func (s *UDPSocket) TryRecv(t *Thread) (packet.Addr, int, packet.Msg, error) {
	return s.recv(t, -1, true)
}

// recv is recvfrom with a receive deadline d (negative: none).
func (s *UDPSocket) recv(t *Thread, d sim.Duration, nowait bool) (packet.Addr, int, packet.Msg, error) {
	r := t.enter(opUDPRecv, func(op *threadOp) {
		op.udp, op.extra, op.timeout, op.timed, op.nowait = s, s.m.cfg.Profile.RxUDPInstr/4, d, d >= 0, nowait
	})
	return r.From, r.N, r.v.msg, r.v.err
}

func (s *UDPSocket) pollRecv(t *Thread, op *threadOp) (*waitQueue, bool) {
	switch {
	case s.Pending() > 0:
		dg := s.rcvq.Pop()
		s.rcvBytes -= dg.bytes
		t.res.From, t.res.N, t.res.v.msg = dg.from, dg.bytes, dg.msg
		t.remaining += s.m.copyCost(dg.bytes)
	case s.closed:
		t.res.v.err = ErrClosed
	case op.expired(s.m.eng.Now()):
		t.res.v.err = ErrWouldBlock
	default:
		return &s.readers, false
	}
	return nil, true
}

// Pending returns the queued datagram count.
func (s *UDPSocket) Pending() int { return s.rcvq.Len() }

// Close unbinds the socket.
func (s *UDPSocket) Close(t *Thread) {
	if !s.closed {
		t.enter(opClose, func(op *threadOp) { op.udp = s })
	}
}

func (s *UDPSocket) close() {
	s.closed = true
	delete(s.m.udpSocks, s.port)
	s.readers.wakeAll(s.m)
	s.notifyWatchers()
}

// deliverUDP runs in softirq context: reassemble and enqueue.
func (m *Machine) deliverUDP(pkt *packet.Packet) {
	s, ok := m.udpSocks[pkt.Dst.Port]
	if !ok || s.closed {
		return // ICMP port unreachable in real life; silently dropped here
	}
	hdr := pkt.UDP
	if hdr.Total == 0 {
		// Raw single-packet datagram (from tests or simple senders).
		hdr.Total, hdr.Bytes = 1, pkt.PayloadBytes
	}
	if hdr.Total > 1 {
		key := fragKey{from: pkt.Src, id: hdr.FragID}
		if got := s.frags[key] + 1; got < int(hdr.Total) {
			s.frags[key] = got
			return // waiting for the rest (loss of any fragment loses all)
		}
		delete(s.frags, key)
	}
	if s.rcvBytes+hdr.Bytes > m.cfg.UDPRcvBuf {
		s.Stats.RxDropsFull++
		return
	}
	s.rcvq.Push(udpDgram{from: pkt.Src, bytes: hdr.Bytes, msg: pkt.Msg})
	s.rcvBytes += hdr.Bytes
	s.Stats.RxDatagrams++
	s.readers.wakeOne(m)
	s.notifyWatchers()
}

func (s *UDPSocket) readyMask() EpollEvents {
	var mask EpollEvents
	if s.Pending() > 0 {
		mask |= EpollIn
	}
	if !s.closed {
		mask |= EpollOut
	} else {
		mask |= EpollHup
	}
	return mask
}

func (s *UDPSocket) epolls() *epollSet { return &s.watchers }
func (s *UDPSocket) notifyWatchers()   { s.watchers.notify(s) }

// --- TCP ----------------------------------------------------------------------

// TCPStats counts socket-level events.
type TCPStats struct {
	Accepted uint64
	Refused  uint64
}

// TCPListener accepts incoming connections on a port.
type TCPListener struct {
	m       *Machine
	port    packet.Port
	backlog int

	pending    sim.FIFO[*TCPSocket] // established, waiting for Accept
	synPending int

	acceptQ  waitQueue
	watchers epollSet
	closed   bool

	Stats TCPStats
}

// Listen binds a listening socket (socket+bind+listen).
func (t *Thread) Listen(port packet.Port, backlog int) (*TCPListener, error) {
	r := t.enter(opListen, func(op *threadOp) { op.port, op.n = port, backlog })
	return r.Listener, r.v.err
}

func (m *Machine) listen(port packet.Port, backlog int) (*TCPListener, error) {
	if _, dup := m.listeners[port]; dup {
		return nil, fmt.Errorf("%w: tcp %d", ErrPortInUse, port)
	}
	if backlog <= 0 {
		backlog = 128
	}
	lis := &TCPListener{m: m, port: port, backlog: backlog}
	m.listeners[port] = lis
	return lis, nil
}

// incoming handles a SYN for this listener (softirq context).
func (lis *TCPListener) incoming(pkt *packet.Packet) {
	m := lis.m
	if lis.closed || lis.pending.Len()+lis.synPending >= lis.backlog {
		lis.Stats.Refused++
		return // SYN dropped; client retries (listen queue overflow)
	}
	sock := m.newTCPSocket(packet.Addr{Node: m.node, Port: lis.port}, pkt.Src, lis)
	lis.synPending++
	sock.conn.HandleSyn(pkt)
}

// Accept blocks until a connection is established and returns it. The
// accept4 variant (memcached >= 1.4.17) saves the extra fcntl syscall that
// Accept4=false charges (§4.2 "Impact of application implementation").
func (lis *TCPListener) Accept(t *Thread, accept4 bool) (*TCPSocket, error) {
	return lis.accept(t, accept4, false)
}

// TryAccept is the non-blocking accept for epoll-driven servers.
func (lis *TCPListener) TryAccept(t *Thread, accept4 bool) (*TCPSocket, error) {
	return lis.accept(t, accept4, true)
}

func (lis *TCPListener) accept(t *Thread, accept4, nowait bool) (*TCPSocket, error) {
	r := t.enter(opAccept, func(op *threadOp) {
		op.lis, op.extra, op.nowait, op.fcntl = lis, lis.m.cfg.Profile.AcceptInstr, nowait, !accept4
	})
	return r.TCP, r.v.err
}

func (lis *TCPListener) pollAccept(t *Thread, op *threadOp) (*waitQueue, bool) {
	switch {
	case lis.pending.Len() > 0:
		t.res.TCP = lis.pending.Pop()
		lis.Stats.Accepted++
	case lis.closed:
		t.res.v.err = ErrClosed
	case op.expired(lis.m.eng.Now()):
		t.res.v.err = ErrWouldBlock
	default:
		return &lis.acceptQ, false
	}
	return nil, true
}

// Close stops accepting.
func (lis *TCPListener) Close(t *Thread) {
	if !lis.closed {
		t.enter(opClose, func(op *threadOp) { op.lis = lis })
	}
}

func (lis *TCPListener) close() {
	lis.closed = true
	delete(lis.m.listeners, lis.port)
	for _, s := range lis.pending.Live() {
		s.conn.Abort()
	}
	lis.pending = sim.FIFO[*TCPSocket]{}
	lis.acceptQ.wakeAll(lis.m)
	lis.notifyWatchers()
}

func (lis *TCPListener) readyMask() EpollEvents {
	var mask EpollEvents
	if lis.pending.Len() > 0 {
		mask |= EpollIn
	}
	if lis.closed {
		mask |= EpollHup
	}
	return mask
}

func (lis *TCPListener) epolls() *epollSet { return &lis.watchers }
func (lis *TCPListener) notifyWatchers()   { lis.watchers.notify(lis) }

// TCPSocket is one connection endpoint with blocking and epoll interfaces.
// The protocol endpoint lives inside it, and the socket is that endpoint's
// tcp.Host, so a connection endpoint is one heap object. Its state is the
// connection's: the socket is established once the connection is past the
// handshake, and done once it is closed again.
type TCPSocket struct {
	conn tcp.Conn
	m    *Machine
	// lis is the listener a passive open reports its handshake to; nil once
	// the handshake completes, and for an active open.
	lis *TCPListener
	// wq holds the threads blocked on the socket — readers, writers and
	// connectors — and wakes each kind in its own arrival order.
	wq       waitQueue
	watchers epollSet
}

// newTCPSocket creates and registers the socket of a connection from local
// to remote; lis is the listener of a passive open.
func (m *Machine) newTCPSocket(local, remote packet.Addr, lis *TCPListener) *TCPSocket {
	s := &TCPSocket{m: m, lis: lis}
	// New validated m.cfg.TCP once for all the machine's connections.
	s.conn.Init((*tcpHost)(s), &m.cfg.TCP, &m.tcpStats, local, remote)
	m.conns[s.key()] = s
	return s
}

func (s *TCPSocket) key() connKey { return newConnKey(s.conn.Local.Port, s.conn.Remote) }

// done reports whether the connection has ended.
func (s *TCPSocket) done() bool { return s.conn.State() == tcp.StateClosed }

// tcpHost is the socket as its connection's tcp.Host: a distinct method set
// keeps the protocol callbacks off TCPSocket's API. It charges TX costs per
// segment, and its AtEvent lets the connection arm timers as allocation-free
// records.
type tcpHost TCPSocket

func (h *tcpHost) Now() sim.Time                                { return h.m.eng.Now() }
func (h *tcpHost) At(t sim.Time, fn func()) sim.EventID         { return h.m.eng.At(t, fn) }
func (h *tcpHost) AtEvent(t sim.Time, ev sim.Event) sim.EventID { return h.m.eng.AtEvent(t, ev) }
func (h *tcpHost) Cancel(id sim.EventID)                        { h.m.eng.Cancel(id) }

// Output charges the per-segment transmit cost in kernel context, then hands
// the segment to the driver. FIFO kernel work keeps segments ordered.
func (h *tcpHost) Output(pkt *packet.Packet) {
	h.m.kernelWorkPkt(KSpanTxTCP, h.m.cost.txTCP, kwTransmit, pkt)
}

// NewPacket allocates an outgoing segment from the machine's partition pool.
func (h *tcpHost) NewPacket() *packet.Packet { return h.m.newPacket() }

func (h *tcpHost) Connected() {
	s := (*TCPSocket)(h)
	if lis := s.lis; lis != nil { // passive open: queue for Accept
		s.lis = nil
		lis.synPending--
		if lis.closed {
			s.conn.Abort()
			return
		}
		lis.pending.Push(s)
		lis.acceptQ.wakeOne(s.m)
		lis.notifyWatchers()
		return
	}
	s.wq.wakeAllOf(s.m, opConnect)
	s.notifyWatchers()
}

func (h *tcpHost) CanRead() {
	h.wq.wakeOneOf(h.m, opTCPRecv)
	(*TCPSocket)(h).notifyWatchers()
}

func (h *tcpHost) CanWrite() {
	h.wq.wakeOneOf(h.m, opTCPSend)
	(*TCPSocket)(h).notifyWatchers()
}

func (h *tcpHost) Closed(error) {
	s, m := (*TCPSocket)(h), h.m
	delete(m.conns, s.key())
	s.wq.wakeAllOf(m, opTCPRecv)
	s.wq.wakeAllOf(m, opTCPSend)
	s.wq.wakeAllOf(m, opConnect)
	s.notifyWatchers()
}

// Connect opens a connection to remote and blocks until it is established.
func (t *Thread) Connect(remote packet.Addr) (*TCPSocket, error) {
	r := t.enter(opConnect, func(op *threadOp) { op.extra, op.remote = t.m.cfg.Profile.ConnectInstr, remote })
	return r.TCP, r.v.err
}

func (t *Thread) pollConnect(op *threadOp) (*waitQueue, bool) {
	m, s := t.m, op.tcp
	if s == nil { // first pass: create the socket and send the SYN
		s = m.newTCPSocket(packet.Addr{Node: m.node, Port: m.ephemeralPort()}, op.remote, nil)
		op.tcp = s
		s.conn.Open()
	}
	switch s.conn.State() {
	case tcp.StateSynSent:
		return &s.wq, false
	case tcp.StateClosed:
		t.res.v.err = fmt.Errorf("%w: %v", ErrConnRefused, s.conn.Err())
	default:
		t.res.TCP = s
	}
	return nil, true
}

// Send writes an n-byte application message, blocking until the send buffer
// accepts all of it. msg, unless its Kind is zero, surfaces at the receiver
// with the final byte.
func (s *TCPSocket) Send(t *Thread, n int, msg packet.Msg) error {
	return t.enter(opTCPSend, func(op *threadOp) { op.tcp, op.n, op.msg = s, n, msg }).v.err
}

func (s *TCPSocket) pollSend(t *Thread, op *threadOp) (*waitQueue, bool) {
	if op.n <= 0 {
		return nil, true
	}
	if s.done() {
		t.res.v.err = s.errOrClosed()
		return nil, true
	}
	accepted := s.conn.Send(op.n, &op.msg)
	if accepted == 0 {
		return &s.wq, false
	}
	op.n -= accepted
	return nil, op.n <= 0
}

// Recv blocks until data (or EOF) is available and returns the bytes
// consumed and any completed application messages. The message slice is the
// calling thread's buffer, valid until its next TCP Recv or TryRecv.
func (s *TCPSocket) Recv(t *Thread, max int) (int, []packet.Msg, error) {
	return s.recv(t, max, false)
}

// TryRecv is the non-blocking read for epoll users. It returns ErrWouldBlock
// when nothing is available.
func (s *TCPSocket) TryRecv(t *Thread, max int) (int, []packet.Msg, error) {
	return s.recv(t, max, true)
}

func (s *TCPSocket) recv(t *Thread, max int, nowait bool) (int, []packet.Msg, error) {
	r := t.enter(opTCPRecv, func(op *threadOp) { op.tcp, op.n, op.nowait = s, max, nowait })
	return r.N, r.v.msgs, r.v.err
}

func (s *TCPSocket) pollRecv(t *Thread, op *threadOp) (*waitQueue, bool) {
	switch {
	case s.conn.Readable() > 0:
		t.res.N, t.msgs = s.conn.ReadAppend(t.msgs[:0], op.n)
		t.res.v.msgs = t.msgs
		t.remaining += s.m.copyCost(t.res.N)
	case s.conn.EOF(): // clean EOF: (0, nil, nil)
	case s.done():
		t.res.v.err = s.errOrClosed()
	case op.expired(s.m.eng.Now()):
		t.res.v.err = ErrWouldBlock
	default:
		return &s.wq, false
	}
	return nil, true
}

// Close performs an orderly shutdown.
func (s *TCPSocket) Close(t *Thread) {
	t.enter(opClose, func(op *threadOp) { op.tcp = s })
}

// Abort resets the connection.
func (s *TCPSocket) Abort(t *Thread) {
	t.enter(opAbort, func(op *threadOp) { op.tcp = s })
}

func (s *TCPSocket) errOrClosed() error {
	if err := s.conn.Err(); err != nil {
		return err
	}
	return ErrClosed
}

func (s *TCPSocket) readyMask() EpollEvents {
	var mask EpollEvents
	done := s.done()
	if s.conn.Readable() > 0 || s.conn.EOF() || done {
		mask |= EpollIn
	}
	if s.conn.State() == tcp.StateEstablished && s.conn.Writable() > 0 {
		mask |= EpollOut
	}
	if done {
		mask |= EpollHup
	}
	return mask
}

func (s *TCPSocket) epolls() *epollSet { return &s.watchers }
func (s *TCPSocket) notifyWatchers()   { s.watchers.notify(s) }
