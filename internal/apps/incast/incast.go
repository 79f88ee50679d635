// Package incast implements the paper's TCP Incast test program (§4.1): a
// client requests a data block striped across N storage servers in lockstep
// iterations — the classic many-to-one synchronized-read pattern of scale-out
// storage [53, 60]. Goodput collapses when concurrent server responses
// overrun the ToR switch buffers and some flows stall in RTO.
//
// Two client implementations are provided, matching the paper's comparison:
// a pthread-style client with one blocking-socket thread per server, and an
// epoll client multiplexing every connection on one thread.
package incast

import (
	"diablo/internal/kernel"
	"diablo/internal/packet"
	"diablo/internal/sim"
)

// The application's message kinds (packet.Msg.Kind): a request, whose A is
// the bytes the server should return (the SRU), and the response marking the
// end of a server's data unit.
const (
	kindRequest uint8 = 1 + iota
	kindResponse
)

func request(sru int) packet.Msg { return packet.Msg{Kind: kindRequest, A: uint64(sru)} }

// ServerParams configures a storage server.
type ServerParams struct {
	Port packet.Port
	// PerRequestInstr is the server-side request handling cost (lookup,
	// buffer management) before data streams out.
	PerRequestInstr int64
}

// DefaultServer returns the standard server setup on port 5001.
func DefaultServer() ServerParams {
	return ServerParams{Port: 5001, PerRequestInstr: 15_000}
}

// InstallServer starts the storage server threads on m: an acceptor plus one
// handler thread per connection (the storage servers are not the bottleneck
// in incast; threading model matters only on the client). Every thread here
// is a program (kernel.Program): each Next runs from one call to the next.
func InstallServer(m *kernel.Machine, p ServerParams) {
	m.Start("incast-server", &acceptor{p: p})
}

// acceptor listens, then starts a handler for every connection it accepts.
type acceptor struct {
	p   ServerParams
	lis *kernel.TCPListener
}

func (a *acceptor) Next(t *kernel.Thread, res *kernel.Result) bool {
	switch {
	case res.Err() != nil:
		return false
	case a.lis == nil && res.Listener == nil:
		t.Listen(a.p.Port, 64)
		return true
	case a.lis == nil:
		a.lis = res.Listener
	default:
		t.Machine().Start("incast-handler", &handler{p: a.p, sock: res.TCP})
	}
	a.lis.Accept(t, true)
	return true
}

// handler serves one connection: each request is answered with SRU bytes
// once its handling cost is paid.
type handler struct {
	p    ServerParams
	sock *kernel.TCPSocket
	pc   int
	msgs []packet.Msg // requests read and not yet served
	sru  int
}

func (h *handler) Next(t *kernel.Thread, res *kernel.Result) bool {
	if res.Err() != nil || h.pc == 3 { // 3: closed
		return false
	}
	switch h.pc {
	case 0: // serve the next request, or read more
		for len(h.msgs) > 0 {
			req := h.msgs[0]
			if h.msgs = h.msgs[1:]; req.Kind == kindRequest {
				h.sru, h.pc = int(req.A), 2
				t.Compute(h.p.PerRequestInstr)
				return true
			}
		}
		h.sock.Recv(t, 1<<20)
		h.pc = 1
	case 1: // a read returned
		if res.N == 0 && len(res.Msgs()) == 0 { // EOF
			h.sock.Close(t)
			h.pc = 3
			break
		}
		h.msgs, h.pc = res.Msgs(), 0
	case 2: // the handling cost is paid
		h.sock.Send(t, h.sru, packet.Msg{Kind: kindResponse})
		h.pc = 0
	}
	return true
}

// ClientParams configures the requesting client.
type ClientParams struct {
	// Servers lists the storage servers to stripe across.
	Servers []packet.Addr
	// BlockBytes is the data each server returns per iteration (the paper's
	// "typical request block size of 256 KB"; as in the classic incast
	// studies the aggregate grows with the server count).
	BlockBytes int
	// Iterations is the number of synchronized reads (the paper runs 40).
	Iterations int
	// Epoll selects the epoll client; false selects the pthread client.
	Epoll bool
	// RequestBytes is the size of the per-server request message.
	RequestBytes int
	// PerIterInstr is the client-side block processing cost per iteration.
	PerIterInstr int64
	// OnIteration, when set, observes each completed synchronized read
	// (iteration index, start and end simulated times). Runs on the client's
	// thread; must not mutate model state.
	OnIteration func(iter int, start, end sim.Time)
}

// DefaultClient returns the paper's §4.1 client parameters.
func DefaultClient(servers []packet.Addr) ClientParams {
	return ClientParams{
		Servers:      servers,
		BlockBytes:   256 * 1024,
		Iterations:   40,
		RequestBytes: 64,
		PerIterInstr: 50_000,
	}
}

// Result reports a finished run.
type Result struct {
	Bytes      uint64       // application payload received
	Elapsed    sim.Duration // first request to last block completion
	GoodputBps float64
	IterTimes  []sim.Duration

	// The client machine's TCP counts: its connections carry the requests
	// and the ACKs of the data.
	Retransmits, Timeouts, FastRetransmits uint64
}

// InstallClient starts the client on m; done is invoked (in simulation
// context) with the result when all iterations complete.
func InstallClient(m *kernel.Machine, p ClientParams, done func(Result)) {
	n := len(p.Servers)
	c := &client{p: p, done: done, socks: make([]*kernel.TCPSocket, n), got: make([]int, n), iters: make([]sim.Duration, 0, p.Iterations), cur: -1}
	if p.Epoll {
		m.Start("incast-client-epoll", c)
	} else {
		m.Start("incast-client", c)
	}
}

// sru returns the per-server data unit.
func (p ClientParams) sru() int {
	if p.BlockBytes <= 0 {
		return 1
	}
	return p.BlockBytes
}

// client is either client: it connects to every server in turn, runs the
// iterations, delivers the result and closes every connection. The pthread
// client paces one blocking worker thread per connection through a barrier;
// the epoll client sends every request and reads every connection itself.
type client struct {
	p                ClientParams
	done             func(Result)
	socks            []*kernel.TCPSocket
	pc, k            int // k: the server being connected to, sent to or closed
	iters            []sim.Duration
	start, iterStart sim.Time
	barrier          *kernel.Barrier // pthread
	ep               *kernel.Epoll   // epoll, and per iteration:
	got              []int           // bytes received per server
	remaining        int             // servers whose data unit is incomplete
	evs              []kernel.EpollEvent
	cur              int // the server being read (-1: none)
}

func (c *client) Next(t *kernel.Thread, res *kernel.Result) bool {
	m, sru := t.Machine(), c.p.sru()
	switch c.pc {
	case 0: // epoll: create the epoll
		c.pc = 1
		if c.p.Epoll {
			t.EpollCreate()
		}
	case 1: // connect to server k; once all are connected, start
		if res.Epoll != nil {
			c.ep = res.Epoll
		}
		if c.k < len(c.socks) {
			t.Connect(c.p.Servers[c.k])
			c.pc = 2
			break
		}
		if !c.p.Epoll {
			c.barrier = kernel.NewBarrier(m, len(c.socks)+1)
			for _, s := range c.socks {
				m.Start("incast-worker", &worker{p: c.p, s: s, barrier: c.barrier})
			}
		}
		c.start, c.pc = t.Now(), 3
	case 2: // connected (epoll: register the socket)
		if c.socks[c.k] = res.TCP; res.Err() != nil {
			return false
		}
		if c.p.Epoll {
			c.ep.Add(t, c.socks[c.k], kernel.EpollIn, uint64(c.k))
		}
		c.k, c.pc = c.k+1, 1
	case 3: // start an iteration: release the workers, or send every request
		c.iterStart, c.k = t.Now(), 0
		switch {
		case len(c.iters) == c.p.Iterations:
			c.finish(t)
			c.pc = 8
		case c.p.Epoll:
			clear(c.got)
			c.remaining, c.pc = len(c.socks), 5
		default:
			c.barrier.Wait(t)
			c.pc = 4
		}
	case 4: // wait until every worker has its data unit
		c.barrier.Wait(t)
		c.pc = 6
	case 5: // send server k its request
		if res.Err() != nil {
			return false
		}
		if c.k < len(c.socks) {
			c.socks[c.k].Send(t, c.p.RequestBytes, request(sru))
			c.k++
			break
		}
		c.pc = 6
	case 6: // epoll: read until every data unit is complete; then the block cost
		if c.cur >= 0 { // a read returned
			if res.Err() == nil && res.N > 0 {
				if c.got[c.cur] += res.N; c.got[c.cur] < sru {
					c.socks[c.cur].TryRecv(t, 1<<20)
					break
				}
				c.remaining--
			}
			c.cur = -1
		} else if res.Events != nil {
			c.evs = res.Events
		}
		for len(c.evs) > 0 {
			i := int(c.evs[0].Data)
			if c.evs = c.evs[1:]; c.got[i] < sru {
				c.cur = i
				c.socks[i].TryRecv(t, 1<<20)
				return true
			}
		}
		if c.remaining > 0 {
			c.ep.Wait(t, 64, kernel.WaitForever)
			break
		}
		t.Compute(c.p.PerIterInstr)
		c.pc = 7
	case 7: // the iteration is done
		c.iters = append(c.iters, t.Now().Sub(c.iterStart))
		if c.p.OnIteration != nil {
			c.p.OnIteration(len(c.iters)-1, c.iterStart, t.Now())
		}
		c.pc = 3
	case 8: // close connection k
		if c.k == len(c.socks) {
			return false
		}
		c.socks[c.k].Close(t)
		c.k++
	}
	return true
}

func (c *client) finish(t *kernel.Thread) {
	now := t.Now()
	res := Result{
		Bytes:     uint64(c.p.sru()) * uint64(len(c.p.Servers)) * uint64(c.p.Iterations),
		Elapsed:   now.Sub(c.start),
		IterTimes: c.iters,
	}
	if res.Elapsed > 0 {
		res.GoodputBps = float64(res.Bytes) * 8 / res.Elapsed.Seconds()
	}
	st := t.Machine().TCPStats()
	res.Retransmits, res.Timeouts, res.FastRetransmits = st.Retransmits, st.Timeouts, st.FastRetransmits
	c.done(res)
}

// worker is one pthread-client thread: it reads one server's data unit per
// iteration on a blocking socket, between two barrier waits.
type worker struct {
	p       ClientParams
	s       *kernel.TCPSocket
	barrier *kernel.Barrier
	pc      int
	iter    int
	got     int
}

func (w *worker) Next(t *kernel.Thread, res *kernel.Result) bool {
	if res.Err() != nil {
		return false
	}
	switch w.pc {
	case 0: // start of iteration
		if w.iter >= w.p.Iterations {
			return false
		}
		w.barrier.Wait(t)
	case 1:
		w.s.Send(t, w.p.RequestBytes, request(w.p.sru()))
	case 2:
		w.got = 0
		w.s.Recv(t, 1<<20)
	case 3: // a read returned
		if res.N == 0 { // EOF
			return false
		}
		if w.got += res.N; w.got < w.p.sru() {
			w.s.Recv(t, 1<<20)
			return true
		}
		w.iter, w.pc = w.iter+1, 0
		w.barrier.Wait(t) // end of iteration
		return true
	}
	w.pc++
	return true
}
