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

// Store is the in-memory item store. Only value sizes are tracked: that is
// all the timing model observes (the experiments measure request latency,
// not data content).
type Store struct {
	sizes map[uint64]int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{sizes: make(map[uint64]int)} }

// Prewarm populates every key with its deterministic steady-state value
// size, so GET traffic hits as in the paper's steady-state measurements.
func Prewarm(p workload.ETCParams) *Store {
	s := NewStore()
	for k := uint64(0); k < uint64(p.Keys); k++ {
		s.sizes[k] = workload.ValueSizeForKey(p, k)
	}
	return s
}

// Get returns the stored size.
func (s *Store) Get(key uint64) (int, bool) {
	n, ok := s.sizes[key]
	return n, ok
}

// Set stores a size.
func (s *Store) Set(key uint64, n int) { s.sizes[key] = n }

// Len returns the item count.
func (s *Store) Len() int { return len(s.sizes) }

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

// worker is one memcached worker thread's shared state; the dispatcher
// hands accepted connections over through queue and wakes the worker
// through its epoll (notification-pipe style).
type worker struct {
	ep *kernel.Epoll
	// queue is head-indexed: popping advances head and the backing array is
	// reused once drained (queue = queue[1:] strands the popped capacity and
	// keeps the popped socket reachable).
	queue []*kernel.TCPSocket
	head  int
}

// InstallServer spawns the server threads on m and returns a handle for
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

	m.Spawn("mc-main", func(t *kernel.Thread) {
		// Bind the shared UDP socket and the TCP listener, then start the
		// workers (memcached's main thread does the setup).
		udp, err := t.UDPSocket(p.Port)
		if err != nil {
			return
		}
		lis, err := t.Listen(p.Port, p.Backlog)
		if err != nil {
			return
		}
		workers := make([]*worker, p.Workers)
		for i := range workers {
			w := &worker{}
			workers[i] = w
			m.Spawn("mc-worker", func(wt *kernel.Thread) {
				srv.runWorker(wt, w, udp)
			})
		}

		// Dispatcher loop: accept and hand off round-robin.
		next := 0
		for {
			sock, err := lis.Accept(t, p.Version.Accept4)
			if err != nil {
				return
			}
			srv.Stats.Accepts++
			w := workers[next]
			next = (next + 1) % len(workers)
			w.queue = append(w.queue, sock)
			if w.ep != nil {
				w.ep.Kick()
			}
		}
	})
	return srv
}

// runWorker is one worker thread's event loop.
func (srv *Server) runWorker(t *kernel.Thread, w *worker, udp *kernel.UDPSocket) {
	w.ep = t.EpollCreate()
	w.ep.Add(t, udp, kernel.EpollIn, udp)
	for {
		for w.head < len(w.queue) {
			conn := w.queue[w.head]
			w.queue[w.head] = nil
			w.head++
			if w.head == len(w.queue) {
				w.queue, w.head = w.queue[:0], 0
			}
			w.ep.Add(t, conn, kernel.EpollIn, conn)
		}
		evs := w.ep.Wait(t, 64, 100*sim.Millisecond)
		for _, ev := range evs {
			switch sock := ev.Data.(type) {
			case *kernel.UDPSocket:
				srv.serveUDP(t, sock)
			case *kernel.TCPSocket:
				if !srv.serveTCP(t, sock) {
					w.ep.Del(t, sock)
				}
			}
		}
	}
}

// serveUDP drains and answers datagrams (the memcached UDP fast path).
func (srv *Server) serveUDP(t *kernel.Thread, sock *kernel.UDPSocket) {
	for {
		from, _, payload, err := sock.TryRecv(t)
		if err != nil {
			return
		}
		req, ok := payload.(Request)
		if !ok {
			continue
		}
		srv.Stats.UDPRequests++
		resp, respBytes := srv.handle(t, req)
		_ = sock.SendTo(t, from, respBytes, resp)
	}
}

// serveTCP drains one connection; it reports false when the connection
// should be removed from the epoll set.
func (srv *Server) serveTCP(t *kernel.Thread, sock *kernel.TCPSocket) bool {
	for {
		n, msgs, err := sock.TryRecv(t, 1<<20)
		if err != nil {
			return err == kernel.ErrWouldBlock
		}
		if n == 0 && len(msgs) == 0 {
			sock.Close(t) // EOF
			return false
		}
		for _, m := range msgs {
			req, ok := m.(Request)
			if !ok {
				continue
			}
			srv.Stats.TCPRequests++
			resp, respBytes := srv.handle(t, req)
			if respBytes > 8200 {
				panic(fmt.Sprintf("memcache: oversized response %dB for %+v", respBytes, req))
			}
			if err := sock.Send(t, respBytes, resp); err != nil {
				return false
			}
		}
	}
}

// handle executes one request against the store, charging version-specific
// CPU costs, and returns the response and its wire size.
func (srv *Server) handle(t *kernel.Thread, req Request) (Response, int) {
	v := srv.p.Version
	t.Compute(v.BaseInstr)
	resp := Response{Seq: req.Seq}
	switch req.Op {
	case workload.Get:
		t.Compute(v.GetInstr)
		srv.Stats.Gets++
		if n, ok := srv.p.Store.Get(req.Key); ok {
			resp.Hit = true
			resp.ValueBytes = n
			return resp, responseHeader + n
		}
		srv.Stats.Misses++
		return resp, responseHeader
	default:
		t.Compute(v.SetInstr)
		srv.Stats.Sets++
		srv.p.Store.Set(req.Key, req.ValueBytes)
		resp.Hit = true
		return resp, responseHeader
	}
}
