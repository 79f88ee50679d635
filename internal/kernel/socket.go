package kernel

import (
	"errors"
	"fmt"

	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
)

// Socket-layer errors.
var (
	ErrPortInUse    = errors.New("kernel: port in use")
	ErrWouldBlock   = errors.New("kernel: operation would block")
	ErrClosed       = errors.New("kernel: socket closed")
	ErrConnRefused  = errors.New("kernel: connection refused")
	ErrMsgTooLong   = errors.New("kernel: datagram exceeds maximum size")
	ErrNotConnected = errors.New("kernel: socket not connected")
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
	attach(*Epoll)
	detach(*Epoll)
}

// EpollEvent is one ready notification from Epoll.Wait.
type EpollEvent struct {
	//diablo:transient scratch result row; Wait rebuilds it from live socket state
	Sock   Pollable
	Events EpollEvents
	//diablo:transient application cookie; reattached by the app when epoll state replays
	Data any
}

type epollItem struct {
	//diablo:transient socket identity; restore re-registers sockets by fd into fresh items
	sock     Pollable
	interest EpollEvents
	//diablo:transient application cookie; reattached by the app when epoll state replays
	data    any
	inReady bool
}

// Epoll is a level-triggered readiness multiplexer, the syscall interface
// the paper contrasts with blocking pthread sockets (§4.1): applications
// using it "proactively poll the kernel for available data".
type Epoll struct {
	m *Machine
	//diablo:transient keyed by socket identity; rebuilt from fd registrations on restore
	items map[Pollable]*epollItem
	// ready is a head-indexed FIFO (see Machine.kq); level-triggered re-queues
	// make this the allocation hot spot of epoll servers otherwise.
	ready     []*epollItem
	readyHead int
	waiters   waitQueue
	kicked    bool
}

// EpollCreate makes a new epoll instance (epoll_create1).
func (t *Thread) EpollCreate() *Epoll {
	return t.enter(opEpollCreate, func(*threadOp) {}).Epoll
}

// Add registers a socket with an interest mask and user data (epoll_ctl).
func (ep *Epoll) Add(t *Thread, sock Pollable, interest EpollEvents, data any) {
	t.enter(opEpollAdd, func(op *threadOp) { op.ep, op.item = ep, &epollItem{sock: sock, interest: interest, data: data} })
}

// Del removes the socket's registration as of the call (EPOLL_CTL_DEL).
func (ep *Epoll) Del(t *Thread, sock Pollable) {
	t.enter(opEpollDel, func(op *threadOp) { op.ep, op.item = ep, ep.items[sock] })
}

func (ep *Epoll) add(it *epollItem) {
	if _, dup := ep.items[it.sock]; dup {
		return
	}
	ep.items[it.sock] = it
	it.sock.attach(ep)
	ep.markReady(it.sock) // pick up already-ready state (level-triggered)
}

func (ep *Epoll) del(it *epollItem) {
	if it != nil && it.sock != nil {
		delete(ep.items, it.sock)
		it.sock.detach(ep)
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
	ep.ready = append(ep.ready, it)
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
	n := len(ep.ready) - ep.readyHead
	for i := 0; i < n && len(out) < op.n; i++ {
		it := ep.ready[ep.readyHead]
		ep.ready[ep.readyHead] = nil
		ep.readyHead++
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
		ep.ready = append(ep.ready, it)
	}
	if ep.readyHead == len(ep.ready) {
		ep.ready = ep.ready[:0]
		ep.readyHead = 0
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
	//diablo:transient opaque app payload; needs a concrete-type registry (ROADMAP item 5)
	payload any
}

type fragKey struct {
	from packet.Addr
	id   uint64
}

type fragState struct {
	got   int
	total int
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

	// rcvq is a head-indexed FIFO (see Machine.kq): popping advances rcvqHead
	// and the backing array is reused, so a steady request/response flow
	// queues and drains datagrams without allocating.
	rcvq     []udpDgram
	rcvqHead int
	rcvBytes int

	frags map[fragKey]*fragState

	readers  waitQueue
	watchers []*Epoll
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
	s := &UDPSocket{m: m, port: port, frags: make(map[fragKey]*fragState)}
	m.udpSocks[port] = s
	return s, nil
}

// Port returns the bound port.
func (s *UDPSocket) Port() packet.Port { return s.port }

// SendTo transmits one datagram of n bytes to dst. payload is the opaque
// application message surfaced at the receiver.
func (s *UDPSocket) SendTo(t *Thread, dst packet.Addr, n int, payload any) error {
	if s.closed {
		return ErrClosed
	}
	if n <= 0 || n > MaxDatagram {
		return ErrMsgTooLong
	}
	t.enter(opSendTo, func(op *threadOp) {
		op.udp, op.extra, op.n, op.remote, op.msg = s, s.m.cfg.Profile.TxUDPInstr, n, dst, payload
	})
	return nil
}

// pollSend transmits the datagram once the entry (and copy) charge is paid, a
// fragment per pass: each after the first goes out once its own charge is paid.
func (s *UDPSocket) pollSend(t *Thread, op *threadOp) bool {
	m := s.m
	if op.pkt != nil {
		m.transmit(op.pkt)
		op.pkt = nil
	}
	if op.id == 0 {
		if !m.cfg.ZeroCopy && !op.copied {
			op.copied = true
			t.remaining += m.copyCost(op.n)
			return false
		}
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
		// The fragment descriptor rides in the typed UDP header (boxing it
		// into Payload would allocate per packet); the application reference
		// is attached to the final fragment only.
		pkt.UDP = packet.UDPHdr{FragID: op.id, Index: uint16(i), Total: uint16(total), Bytes: op.n}
		if i == total-1 {
			pkt.Payload = op.msg
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
// and payload.
func (s *UDPSocket) RecvFrom(t *Thread) (packet.Addr, int, any, error) {
	return s.recv(t, -1, false)
}

// RecvFromTimeout is RecvFrom with a receive deadline (SO_RCVTIMEO): it
// returns ErrWouldBlock if no datagram arrives within d.
func (s *UDPSocket) RecvFromTimeout(t *Thread, d sim.Duration) (packet.Addr, int, any, error) {
	return s.recv(t, d, false)
}

// TryRecv is the non-blocking variant (MSG_DONTWAIT), for epoll users.
func (s *UDPSocket) TryRecv(t *Thread) (packet.Addr, int, any, error) {
	return s.recv(t, -1, true)
}

// recv is recvfrom with a receive deadline d (negative: none).
func (s *UDPSocket) recv(t *Thread, d sim.Duration, nowait bool) (packet.Addr, int, any, error) {
	r := t.enter(opUDPRecv, func(op *threadOp) {
		op.udp, op.extra, op.timeout, op.timed, op.nowait = s, s.m.cfg.Profile.RxUDPInstr/4, d, d >= 0, nowait
	})
	return r.From, r.N, r.v.payload, r.v.err
}

func (s *UDPSocket) pollRecv(t *Thread, op *threadOp) (*waitQueue, bool) {
	switch {
	case s.Pending() > 0:
		dg := s.popDgram()
		s.rcvBytes -= dg.bytes
		t.res.From, t.res.N, t.res.v.payload = dg.from, dg.bytes, dg.payload
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

// popDgram removes the queue head. Callers must check Pending() first.
func (s *UDPSocket) popDgram() udpDgram {
	d := s.rcvq[s.rcvqHead]
	s.rcvq[s.rcvqHead] = udpDgram{}
	s.rcvqHead++
	if s.rcvqHead == len(s.rcvq) {
		s.rcvq = s.rcvq[:0]
		s.rcvqHead = 0
	}
	return d
}

// Pending returns the queued datagram count.
func (s *UDPSocket) Pending() int { return len(s.rcvq) - s.rcvqHead }

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
		hdr = packet.UDPHdr{Total: 1, Bytes: pkt.PayloadBytes}
	}
	if hdr.Total > 1 {
		key := fragKey{from: pkt.Src, id: hdr.FragID}
		st := s.frags[key]
		if st == nil {
			st = &fragState{total: int(hdr.Total)}
			s.frags[key] = st
		}
		st.got++
		if st.got < st.total {
			return // waiting for the rest (loss of any fragment loses all)
		}
		delete(s.frags, key)
	}
	if s.rcvBytes+hdr.Bytes > m.cfg.UDPRcvBuf {
		s.Stats.RxDropsFull++
		return
	}
	s.rcvq = append(s.rcvq, udpDgram{from: pkt.Src, bytes: hdr.Bytes, payload: pkt.Payload})
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

func (s *UDPSocket) attach(ep *Epoll) { s.watchers = append(s.watchers, ep) }
func (s *UDPSocket) detach(ep *Epoll) { s.watchers = removeEpoll(s.watchers, ep) }
func (s *UDPSocket) notifyWatchers() {
	for _, ep := range s.watchers {
		ep.markReady(s)
	}
}

func removeEpoll(eps []*Epoll, ep *Epoll) []*Epoll {
	for i, e := range eps {
		if e == ep {
			return append(eps[:i], eps[i+1:]...)
		}
	}
	return eps
}

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

	pending    []*TCPSocket // established, waiting for Accept; head-indexed like Machine.kq
	pendHead   int
	synPending int

	acceptQ  waitQueue
	watchers []*Epoll
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

// Port returns the listening port.
func (lis *TCPListener) Port() packet.Port { return lis.port }

// incoming handles a SYN for this listener (softirq context).
func (lis *TCPListener) incoming(pkt *packet.Packet, key connKey) {
	m := lis.m
	if lis.closed || lis.queued()+lis.synPending >= lis.backlog {
		lis.Stats.Refused++
		return // SYN dropped; client retries (listen queue overflow)
	}
	local := packet.Addr{Node: m.node, Port: lis.port}
	remote := pkt.Src
	conn, err := tcp.NewServer(tcpEnv{m}, m.cfg.TCP, local, remote)
	if err != nil {
		lis.Stats.Refused++
		return
	}
	sock := newTCPSocket(m, conn, key)
	m.conns[key] = sock
	lis.synPending++
	conn.OnConnected = func() {
		lis.synPending--
		if lis.closed {
			sock.conn.Abort()
			return
		}
		lis.pending = append(lis.pending, sock)
		lis.acceptQ.wakeOne(m)
		lis.notifyWatchers()
	}
	conn.HandleSyn(pkt)
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
	case lis.queued() > 0:
		t.res.TCP = lis.pending[lis.pendHead]
		lis.pending[lis.pendHead] = nil
		lis.pendHead++
		if lis.pendHead == len(lis.pending) {
			lis.pending, lis.pendHead = lis.pending[:0], 0
		}
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

// queued returns the number of established connections waiting for Accept.
func (lis *TCPListener) queued() int { return len(lis.pending) - lis.pendHead }

// Close stops accepting.
func (lis *TCPListener) Close(t *Thread) {
	if !lis.closed {
		t.enter(opClose, func(op *threadOp) { op.lis = lis })
	}
}

func (lis *TCPListener) close() {
	lis.closed = true
	delete(lis.m.listeners, lis.port)
	for _, s := range lis.pending[lis.pendHead:] {
		s.conn.Abort()
	}
	lis.pending, lis.pendHead = nil, 0
	lis.acceptQ.wakeAll(lis.m)
	lis.notifyWatchers()
}

func (lis *TCPListener) readyMask() EpollEvents {
	var mask EpollEvents
	if lis.queued() > 0 {
		mask |= EpollIn
	}
	if lis.closed {
		mask |= EpollHup
	}
	return mask
}

func (lis *TCPListener) attach(ep *Epoll) { lis.watchers = append(lis.watchers, ep) }
func (lis *TCPListener) detach(ep *Epoll) { lis.watchers = removeEpoll(lis.watchers, ep) }
func (lis *TCPListener) notifyWatchers() {
	for _, ep := range lis.watchers {
		ep.markReady(lis)
	}
}

// TCPSocket is one connection endpoint with blocking and epoll interfaces.
type TCPSocket struct {
	m    *Machine
	conn *tcp.Conn
	key  connKey

	readers  waitQueue
	writers  waitQueue
	connectQ waitQueue
	watchers []*Epoll
	done     bool
	//diablo:transient one of a small closed error set; encodes as an errno-style code
	err error
}

func newTCPSocket(m *Machine, conn *tcp.Conn, key connKey) *TCPSocket {
	s := &TCPSocket{m: m, conn: conn, key: key}
	conn.OnReadable = func() {
		s.readers.wakeOne(m)
		s.notifyWatchers()
	}
	conn.OnWritable = func() {
		s.writers.wakeOne(m)
		s.notifyWatchers()
	}
	conn.OnClosed = func(err error) {
		s.done = true
		s.err = err
		m.tcpClosed.accumulate(conn.Stats)
		delete(m.conns, s.key)
		s.readers.wakeAll(m)
		s.writers.wakeAll(m)
		s.connectQ.wakeAll(m)
		s.notifyWatchers()
	}
	return s
}

// Connect opens a connection to remote and blocks until it is established.
func (t *Thread) Connect(remote packet.Addr) (*TCPSocket, error) {
	r := t.enter(opConnect, func(op *threadOp) { op.extra, op.remote = t.m.cfg.Profile.ConnectInstr, remote })
	return r.TCP, r.v.err
}

func (t *Thread) pollConnect(op *threadOp) (*waitQueue, bool) {
	m, s := t.m, op.tcp
	if s == nil { // first pass: create the socket and send the SYN
		local := packet.Addr{Node: m.node, Port: m.ephemeralPort()}
		key := newConnKey(local.Port, op.remote)
		conn, err := tcp.NewClient(tcpEnv{m}, m.cfg.TCP, local, op.remote)
		if err != nil {
			t.res.v.err = err
			return nil, true
		}
		s = newTCPSocket(m, conn, key)
		m.conns[key] = s
		conn.OnConnected = func() {
			if t.op.tcp == s {
				t.op.connected = true
			}
			s.connectQ.wakeAll(m)
			s.notifyWatchers()
		}
		op.tcp = s
		conn.Open()
	}
	if !op.connected && !s.done {
		return &s.connectQ, false
	}
	if s.done {
		t.res.v.err = fmt.Errorf("%w: %v", ErrConnRefused, s.err)
	} else {
		t.res.TCP = s
	}
	return nil, true
}

// Conn exposes the protocol endpoint (for stats inspection).
func (s *TCPSocket) Conn() *tcp.Conn { return s.conn }

// Remote returns the peer address.
func (s *TCPSocket) Remote() packet.Addr { return s.conn.Remote }

// Err returns the terminal error after the connection closed.
func (s *TCPSocket) Err() error { return s.err }

// Send writes an n-byte application message, blocking until the send buffer
// accepts all of it. payload surfaces at the receiver with the final byte.
func (s *TCPSocket) Send(t *Thread, n int, payload any) error {
	return t.enter(opTCPSend, func(op *threadOp) { op.tcp, op.n, op.msg = s, n, payload }).v.err
}

func (s *TCPSocket) pollSend(t *Thread, op *threadOp) (*waitQueue, bool) {
	if op.n <= 0 {
		return nil, true
	}
	if s.done {
		t.res.v.err = s.errOrClosed()
		return nil, true
	}
	accepted := s.conn.Send(op.n, op.msg)
	if accepted == 0 {
		return &s.writers, false
	}
	if !s.m.cfg.ZeroCopy {
		t.remaining += s.m.copyCost(accepted)
	}
	op.n -= accepted
	return nil, op.n <= 0
}

// Recv blocks until data (or EOF) is available and returns the bytes
// consumed and any completed application messages.
func (s *TCPSocket) Recv(t *Thread, max int) (int, []any, error) {
	return s.recv(t, max, false)
}

// TryRecv is the non-blocking read for epoll users. It returns ErrWouldBlock
// when nothing is available.
func (s *TCPSocket) TryRecv(t *Thread, max int) (int, []any, error) {
	return s.recv(t, max, true)
}

func (s *TCPSocket) recv(t *Thread, max int, nowait bool) (int, []any, error) {
	r := t.enter(opTCPRecv, func(op *threadOp) { op.tcp, op.n, op.nowait = s, max, nowait })
	return r.N, r.v.msgs, r.v.err
}

func (s *TCPSocket) pollRecv(t *Thread, op *threadOp) (*waitQueue, bool) {
	switch {
	case s.conn.Readable() > 0:
		t.res.N, t.res.v.msgs = s.conn.Read(op.n)
		t.remaining += s.m.copyCost(t.res.N)
	case s.conn.EOF(): // clean EOF: (0, nil, nil)
	case s.done:
		t.res.v.err = s.errOrClosed()
	case op.expired(s.m.eng.Now()):
		t.res.v.err = ErrWouldBlock
	default:
		return &s.readers, false
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
	if s.err != nil {
		return s.err
	}
	return ErrClosed
}

func (s *TCPSocket) readyMask() EpollEvents {
	var mask EpollEvents
	if s.conn.Readable() > 0 || s.conn.EOF() || s.done {
		mask |= EpollIn
	}
	if !s.done && s.conn.State() == tcp.StateEstablished && s.conn.Writable() > 0 {
		mask |= EpollOut
	}
	if s.done {
		mask |= EpollHup
	}
	return mask
}

func (s *TCPSocket) attach(ep *Epoll) { s.watchers = append(s.watchers, ep) }
func (s *TCPSocket) detach(ep *Epoll) { s.watchers = removeEpoll(s.watchers, ep) }
func (s *TCPSocket) notifyWatchers() {
	for _, ep := range s.watchers {
		ep.markReady(s)
	}
}
