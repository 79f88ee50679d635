// Package memcache models the memcached distributed key-value store as
// deployed in the paper's §4.2 experiments: a multi-threaded server (main
// dispatcher thread accepting connections, N epoll worker threads serving
// TCP and UDP), and closed-loop clients driven by the Facebook ETC workload
// generator.
//
// Two version profiles reproduce the paper's 1.4.15 vs 1.4.17 comparison:
// the newer version uses the accept4 syscall, "which eliminates one extra
// syscall for each new TCP connection" [22], plus marginally leaner request
// handling.
package memcache

import (
	"fmt"
	"maps"

	"diablo/internal/kernel"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/workload"
)

// Version models a memcached release's syscall and cost profile.
type Version struct {
	Name string
	// Accept4 indicates accept4() support (1.4.17+); without it every
	// accepted connection pays an extra fcntl syscall.
	Accept4 bool
	// BaseInstr is the per-request parse/dispatch cost.
	BaseInstr int64
	// GetInstr / SetInstr are the op-specific costs (hash lookup, LRU
	// bookkeeping, item store).
	GetInstr, SetInstr int64
}

// V1415 returns the 1.4.15 profile.
func V1415() Version {
	return Version{Name: "1.4.15", Accept4: false, BaseInstr: 8_600, GetInstr: 3_000, SetInstr: 5_000}
}

// V1417 returns the 1.4.17 profile.
func V1417() Version {
	return Version{Name: "1.4.17", Accept4: true, BaseInstr: 8_200, GetInstr: 3_000, SetInstr: 5_000}
}

// VersionByName resolves "1.4.15"/"1.4.17".
func VersionByName(name string) (Version, bool) {
	switch name {
	case "1.4.15":
		return V1415(), true
	case "1.4.17":
		return V1417(), true
	default:
		return Version{}, false
	}
}

// Wire message overheads (memcached protocol headers).
const (
	requestHeader  = 24
	responseHeader = 24
)

// Request is the client->server message.
type Request struct {
	Op         workload.Op
	Key        uint64
	ValueBytes int // SET only
	Seq        uint64
}

// wireBytes returns the request's application-payload size.
func (r Request) wireBytes(keyBytes int) int {
	n := requestHeader + keyBytes
	if r.Op == workload.Set {
		n += r.ValueBytes
	}
	return n
}

// Response is the server->client message.
type Response struct {
	Seq        uint64
	Hit        bool
	ValueBytes int
}

// Message kinds (packet.Msg.Kind), the same over UDP and TCP. A request's
// words are its Seq, its Key, and its Op and ValueBytes in the high and low
// halves; a response's are its Seq, its ValueBytes and whether it hit.
// requestOf and responseOf decode a message, reporting whether it is of
// their kind.
const (
	kindRequest uint8 = 1 + iota
	kindResponse
)

func (r Request) msg() packet.Msg {
	return packet.Msg{Kind: kindRequest, A: r.Seq, B: r.Key, C: uint64(r.Op)<<32 | uint64(uint32(r.ValueBytes))}
}

func requestOf(m packet.Msg) (Request, bool) {
	return Request{Op: workload.Op(m.C >> 32), Key: m.B, ValueBytes: int(uint32(m.C)), Seq: m.A}, m.Kind == kindRequest
}

func (r Response) msg() packet.Msg {
	m := packet.Msg{Kind: kindResponse, A: r.Seq, B: uint64(r.ValueBytes)}
	if r.Hit {
		m.C = 1
	}
	return m
}

func responseOf(m packet.Msg) (Response, bool) {
	return Response{Seq: m.A, Hit: m.C != 0, ValueBytes: int(m.B)}, m.Kind == kindResponse
}

// Store is the in-memory item store. Only value sizes are tracked: that is
// all the timing model observes (the experiments measure request latency,
// not data content). A store is a base of sizes dense over keys 0..len-1,
// which Prewarm writes once and every clone shares read-only, under the
// store's own overlay of the keys SET since it was made; Get reads the
// overlay first.
type Store struct {
	base []int32          // value size by key; never written after Prewarm
	over map[uint64]int32 // value size by key, for keys SET since the clone
	n    int              // keys present
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{over: map[uint64]int32{}} }

// Prewarm returns a store holding every key at its deterministic
// steady-state value size, so GET traffic hits as in the paper's
// steady-state measurements. Clone it once per server: the clones share its
// size table.
func Prewarm(p workload.ETCParams) *Store {
	base := make([]int32, p.Keys)
	for k := range base {
		base[k] = int32(workload.ValueSizeForKey(p, uint64(k)))
	}
	return &Store{base: base, over: map[uint64]int32{}, n: p.Keys}
}

// Clone returns a store holding s's items that changes independently of s.
// It shares s's base and copies only the overlay, with room for sets more
// keys, so that many SETs of new keys allocate nothing.
func (s *Store) Clone(sets int) *Store {
	over := make(map[uint64]int32, len(s.over)+sets)
	maps.Copy(over, s.over)
	return &Store{base: s.base, over: over, n: s.n}
}

// Get returns the stored size.
func (s *Store) Get(key uint64) (int, bool) {
	if n, ok := s.over[key]; ok {
		return int(n), true
	}
	if key < uint64(len(s.base)) {
		return int(s.base[key]), true
	}
	return 0, false
}

// Set stores a size.
func (s *Store) Set(key uint64, n int) {
	if key >= uint64(len(s.base)) {
		if _, ok := s.over[key]; !ok {
			s.n++
		}
	}
	s.over[key] = int32(n)
}

// Len returns the item count.
func (s *Store) Len() int { return s.n }

// ServerParams configures one memcached server process.
type ServerParams struct {
	Port    packet.Port
	Workers int
	Version Version
	Store   *Store
	Backlog int
}

// DefaultServer returns a 4-worker server on the standard port 11211.
func DefaultServer(version Version, store *Store) ServerParams {
	return ServerParams{Port: 11211, Workers: 4, Version: version, Store: store, Backlog: 1024}
}

// ServerStats counts server-side activity.
type ServerStats struct {
	Gets, Sets, Misses uint64
	TCPRequests        uint64
	UDPRequests        uint64
	Accepts            uint64
}

// Server is a running memcached instance.
type Server struct {
	m     *kernel.Machine
	p     ServerParams
	Stats ServerStats
}

// InstallServer starts the server threads on m and returns a handle for
// statistics.
func InstallServer(m *kernel.Machine, p ServerParams) *Server {
	if p.Store == nil {
		p.Store = NewStore()
	}
	if p.Workers <= 0 {
		p.Workers = 4
	}
	if p.Backlog <= 0 {
		p.Backlog = 1024
	}
	srv := &Server{m: m, p: p}
	m.Start("mc-main", &dispatcher{srv: srv})
	return srv
}

// dispatcher is memcached's main thread: it binds the shared UDP socket and
// the TCP listener, starts the workers, then hands out connections. Server
// threads are programs (kernel.Program): each Next runs from call to call.
type dispatcher struct {
	srv     *Server
	pc      int
	udp     *kernel.UDPSocket
	lis     *kernel.TCPListener
	workers []*worker
	next    int
}

func (d *dispatcher) Next(t *kernel.Thread, res *kernel.Result) bool {
	p := d.srv.p
	switch {
	case res.Err() != nil:
		return false
	case d.pc == 0:
		t.UDPSocket(p.Port)
	case d.pc == 1:
		d.udp = res.UDP
		t.Listen(p.Port, p.Backlog)
	case d.pc == 2: // listening: start the workers
		d.lis = res.Listener
		d.workers = make([]*worker, p.Workers)
		for i := range d.workers {
			d.workers[i] = &worker{srv: d.srv, udp: d.udp}
			d.srv.m.Start("mc-worker", d.workers[i])
		}
	default: // a connection: hand it off round-robin
		d.srv.Stats.Accepts++
		w := d.workers[d.next]
		d.next = (d.next + 1) % len(d.workers)
		w.queue = append(w.queue, res.TCP)
		if w.ep != nil {
			w.ep.Kick()
		}
	}
	if d.pc >= 2 {
		d.lis.Accept(t, p.Version.Accept4)
	}
	d.pc = min(d.pc+1, 3)
	return true
}

// worker is one memcached worker thread: an epoll loop over the shared UDP
// socket and the connections the dispatcher hands over through queue, waking
// the worker through its epoll (notification-pipe style).
type worker struct {
	srv *Server
	udp *kernel.UDPSocket
	ep  *kernel.Epoll
	// queue is head-indexed: popping advances head and the backing array is
	// reused once drained (queue = queue[1:] strands the popped capacity and
	// keeps the popped socket reachable).
	queue []*kernel.TCPSocket
	head  int

	pc   int
	evs  []kernel.EpollEvent // ready events not yet served
	u    *kernel.UDPSocket   // the socket being served: u or c
	c    *kernel.TCPSocket
	msgs []packet.Msg // TCP messages read and not yet handled
	from packet.Addr
	req  Request
}

// The worker's program counter.
const (
	wCreate   = iota // create the epoll
	wRegister        // register the UDP socket
	wLoop            // register handed-over connections, then wait
	wEvent           // serve the next ready socket
	wUDP             // read the UDP socket (the memcached UDP fast path)
	wUDPRecv         // the UDP read returned
	wTCPRecv         // the TCP read returned
	wMsg             // handle the next TCP message (after a send: if it went out)
	wBase            // the request's base cost is paid
	wOp              // the op-specific cost is paid: reply
	wDel             // drop the connection from the epoll set
)

func (w *worker) Next(t *kernel.Thread, res *kernel.Result) bool {
	v := w.srv.p.Version
	switch w.pc {
	case wCreate:
		t.EpollCreate()
		w.pc = wRegister
	case wRegister:
		w.ep = res.Epoll
		w.ep.Add(t, w.udp, kernel.EpollIn, 0)
		w.pc = wLoop
	case wLoop:
		if w.head == len(w.queue) {
			w.ep.Wait(t, 64, 100*sim.Millisecond)
			w.evs, w.pc = nil, wEvent
			break
		}
		conn := w.queue[w.head]
		w.queue[w.head] = nil
		if w.head++; w.head == len(w.queue) {
			w.queue, w.head = w.queue[:0], 0
		}
		w.ep.Add(t, conn, kernel.EpollIn, 0)
	case wEvent:
		if res.Events != nil {
			w.evs = res.Events
		}
		if len(w.evs) == 0 {
			w.pc = wLoop
			break
		}
		ready := w.evs[0].Sock
		w.evs, w.u, w.c = w.evs[1:], nil, nil
		switch sock := ready.(type) {
		case *kernel.UDPSocket:
			w.u, w.pc = sock, wUDP
		case *kernel.TCPSocket:
			w.c, w.pc = sock, wTCPRecv
			sock.TryRecv(t, 1<<20)
		}
	case wUDP:
		w.u.TryRecv(t)
		w.pc = wUDPRecv
	case wUDPRecv:
		req, ok := requestOf(res.Msg())
		switch {
		case res.Err() != nil:
			w.pc = wEvent
		case !ok:
			w.pc = wUDP
		default:
			w.srv.Stats.UDPRequests++
			w.from, w.req, w.pc = res.From, req, wBase
			t.Compute(v.BaseInstr)
		}
	case wTCPRecv:
		switch err := res.Err(); {
		case err == kernel.ErrWouldBlock:
			w.pc = wEvent
		case err != nil:
			w.pc = wDel
		case res.N == 0 && len(res.Msgs()) == 0: // EOF
			w.c.Close(t)
			w.pc = wDel
		default:
			w.msgs, w.pc = res.Msgs(), wMsg
		}
	case wMsg:
		switch {
		case res.Err() != nil:
			w.pc = wDel
		case len(w.msgs) == 0:
			w.c.TryRecv(t, 1<<20)
			w.pc = wTCPRecv
		default:
			req, ok := requestOf(w.msgs[0])
			if w.msgs = w.msgs[1:]; ok {
				w.srv.Stats.TCPRequests++
				w.req, w.pc = req, wBase
				t.Compute(v.BaseInstr)
			}
		}
	case wBase:
		if w.pc = wOp; w.req.Op == workload.Get {
			t.Compute(v.GetInstr)
		} else {
			t.Compute(v.SetInstr)
		}
	case wOp:
		resp, respBytes := w.srv.apply(w.req)
		if w.u != nil {
			_ = w.u.SendTo(t, w.from, respBytes, resp.msg())
			w.pc = wUDP
			break
		}
		if respBytes > 8200 {
			panic(fmt.Sprintf("memcache: oversized response %dB for %+v", respBytes, w.req))
		}
		w.c.Send(t, respBytes, resp.msg())
		w.pc = wMsg
	case wDel:
		w.ep.Del(t, w.c)
		w.pc = wEvent
	}
	return true
}

// apply executes a request against the store once its CPU cost is paid, and
// returns the response and its wire size.
func (srv *Server) apply(req Request) (Response, int) {
	if req.Op != workload.Get {
		srv.Stats.Sets++
		srv.p.Store.Set(req.Key, req.ValueBytes)
		return Response{Seq: req.Seq, Hit: true}, responseHeader
	}
	srv.Stats.Gets++
	n, ok := srv.p.Store.Get(req.Key)
	if !ok {
		srv.Stats.Misses++
	}
	return Response{Seq: req.Seq, Hit: ok, ValueBytes: n}, responseHeader + n
}
