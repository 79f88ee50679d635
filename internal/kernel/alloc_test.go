package kernel

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// TestAllocBudgetToyMemcached runs a toy memcached over TCP — an epoll
// server answering every request on each of its connections, a client
// keeping conns connections and making one request at a time on each, every
// request and response a distinct packet.Msg value — and counts the host
// allocations of its phases. Once a
// warm-up round of connections has come and gone, opening a connection
// allocates at most one object per endpoint (its socket), and a
// request/response exchange allocates nothing.
func TestAllocBudgetToyMemcached(t *testing.T) {
	if instrumented {
		t.Skip("-race and slabdebug builds allocate on their own")
	}
	const conns, rounds, cycles = 16, 20, 3
	r := newRig(t, DefaultConfig())
	pool := packet.NewPool() // as in a cluster: segments are recycled
	r.a.SetPool(pool)
	r.b.SetPool(pool)
	srv := packet.Addr{Node: r.b.Node(), Port: 11211}
	respTo := func(req packet.Msg) packet.Msg { return packet.Msg{Kind: 2, A: req.A, B: req.B + 1} }

	r.b.Spawn("memcached", func(th *Thread) {
		lis, err := th.Listen(srv.Port, 128)
		if err != nil {
			panic(err)
		}
		ep := th.EpollCreate()
		ep.Add(th, lis, EpollIn, 0)
		for {
			for _, ev := range ep.Wait(th, 64, WaitForever) {
				if ev.Sock == Pollable(lis) {
					if s, err := lis.TryAccept(th, true); err == nil {
						ep.Add(th, s, EpollIn, 0)
					}
					continue
				}
				s := ev.Sock.(*TCPSocket)
				switch n, msgs, err := s.TryRecv(th, 1<<20); {
				case err == ErrWouldBlock:
				case err != nil || n == 0 && len(msgs) == 0:
					ep.Del(th, s)
					s.Close(th)
				default:
					for _, m := range msgs {
						s.Send(th, 300, respTo(m))
					}
				}
			}
		}
	})

	// After a warm-up cycle, cycle k connects from 1+3k simulated seconds,
	// exchanges from 2+3k and closes from 3+3k; the test reads the counts
	// in between.
	socks := make([]*TCPSocket, conns)
	r.a.Spawn("client", func(th *Thread) {
		connect := func() {
			for i := range socks {
				s, err := th.Connect(srv)
				if err != nil {
					panic(err)
				}
				socks[i] = s
			}
		}
		var seq uint64
		exchange := func(n int) {
			for range n {
				for _, s := range socks {
					seq++
					req := packet.Msg{Kind: 1, A: seq, B: seq << 8}
					s.Send(th, 100, req)
					for got := false; !got; {
						_, msgs, err := s.Recv(th, 1<<20)
						if err != nil {
							panic(err)
						}
						for _, m := range msgs {
							got = got || m == respTo(req)
						}
					}
				}
			}
		}
		closeAll := func() {
			for _, s := range socks {
				s.Close(th)
			}
		}
		until := func(at sim.Time) { th.Sleep(at.Sub(th.Now())) }
		connect()
		exchange(rounds)
		closeAll()
		for k := range cycles {
			base := sim.Time(sim.Duration(1+3*k) * sim.Second)
			until(base)
			connect()
			until(base.Add(sim.Second))
			exchange(rounds)
			until(base.Add(2 * sim.Second))
			closeAll()
		}
	})

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	r.run(sim.Second) // warm-up: every structure reaches its working size
	if n := len(r.a.conns) + len(r.b.conns); n != 0 {
		t.Fatalf("%d connections left after the warm-up closed them all", n)
	}
	// Two host costs are amortized, not per endpoint or message, and land at
	// instants that vary run to run: Go maps regrow now and then under
	// insert/delete churn, and the runtime fills each type assertion's
	// call-site cache once, on a random miss. The budgets hold the cheapest of
	// the cycles.
	connected, exchanged := uint64(1<<62), uint64(1<<62)
	for k := range cycles {
		base := sim.Duration(1+3*k) * sim.Second
		before := mallocs()
		r.run(base + sim.Second)
		connected = min(connected, mallocs()-before)
		if n := len(r.b.conns); n != conns {
			t.Fatalf("cycle %d: server holds %d connections, want %d", k, n, conns)
		}
		before = mallocs()
		r.run(base + 2*sim.Second)
		exchanged = min(exchanged, mallocs()-before)
		r.run(base + 3*sim.Second)
		if n := len(r.a.conns) + len(r.b.conns); n != 0 {
			t.Fatalf("cycle %d: %d connections left after the client closed them all", k, n)
		}
	}
	t.Logf("best of %d cycles: opening %d connections, %d objects; %d exchanges, %d", cycles, conns, connected, conns*rounds, exchanged)
	if connected > 2*conns {
		t.Errorf("opening %d connections allocated %d objects, want at most one per endpoint (%d)", conns, connected, 2*conns)
	}
	if exchanged != 0 {
		t.Errorf("%d exchanges allocated %d objects, want none", conns*rounds, exchanged)
	}
}

// TestTCPSocketSize pins the per-endpoint record on 64-bit hosts: a socket,
// with its connection embedded, is the one object a TCP endpoint allocates.
// 512 bytes is the largest size class whose objects carry no header: the
// runtime prefixes a larger object that holds pointers with 8 bytes, and
// the next class is 576.
func TestTCPSocketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(TCPSocket{}); got > 512 {
		t.Errorf("TCPSocket is %d bytes, want at most 512", got)
	}
}

// TestTCPEndpointBytes measures what an established connection costs the
// host heap, both endpoints together: the bytes allocated while conns
// connections connect and are accepted, divided among them. A warm-up round
// first brings the socket maps, the packet pool and the event queue to their
// working size, and the budget holds the cheapest of three cycles, as the
// other budgets do. Each endpoint is one socket of at most 512 bytes
// (TestTCPSocketSize); the allowance covers the socket maps' occasional
// regrowth under delete and insert churn. Any field moved out of the socket
// into a side allocation shows up here.
func TestTCPEndpointBytes(t *testing.T) {
	if instrumented {
		t.Skip("-race and slabdebug builds allocate on their own")
	}
	const conns, cycles, allowance = 64, 3, 64
	r := newRig(t, DefaultConfig())
	pool := packet.NewPool()
	r.a.SetPool(pool)
	r.b.SetPool(pool)
	srv := packet.Addr{Node: r.b.Node(), Port: 80}
	// Cycle k (the warm-up is cycle 0) connects from k simulated seconds;
	// both sides close their ends at k+0.5.
	until := func(th *Thread, at sim.Duration) { th.Sleep(sim.Time(at).Sub(th.Now())) }
	closeAll := func(th *Thread, socks []*TCPSocket) {
		for _, s := range socks {
			s.Close(th)
		}
	}
	r.b.Spawn("server", func(th *Thread) {
		lis, _ := th.Listen(srv.Port, conns)
		socks := make([]*TCPSocket, conns)
		for k := 0; ; k++ {
			for i := range socks {
				s, err := lis.Accept(th, true)
				if err != nil {
					panic(err)
				}
				socks[i] = s
			}
			until(th, sim.Duration(k)*sim.Second+sim.Second/2)
			closeAll(th, socks)
		}
	})
	r.a.Spawn("client", func(th *Thread) {
		socks := make([]*TCPSocket, conns)
		for k := 0; k <= cycles; k++ {
			until(th, sim.Duration(k)*sim.Second)
			for i := range socks {
				s, err := th.Connect(srv)
				if err != nil {
					panic(err)
				}
				socks[i] = s
			}
			until(th, sim.Duration(k)*sim.Second+sim.Second/2)
			closeAll(th, socks)
		}
	})
	var ms runtime.MemStats
	totalAlloc := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	r.run(sim.Second) // warm-up
	if n := len(r.a.conns) + len(r.b.conns); n != 0 {
		t.Fatalf("%d connections left after the warm-up closed them all", n)
	}
	per := uint64(1 << 62)
	for k := 1; k <= cycles; k++ {
		base := sim.Duration(k) * sim.Second
		before := totalAlloc()
		r.run(base + sim.Second/2)
		per = min(per, (totalAlloc()-before)/conns)
		if na, nb := len(r.a.conns), len(r.b.conns); na != conns || nb != conns {
			t.Fatalf("cycle %d: %d and %d connections established, want %d", k, na, nb, conns)
		}
		r.run(base + sim.Second)
	}
	t.Logf("best of %d cycles: %d bytes per established connection (both endpoints)", cycles, per)
	if per > 2*512+allowance {
		t.Errorf("an established connection allocated %d bytes, want at most %d (two 512-byte sockets and %d for map growth)", per, 2*512+allowance, allowance)
	}
}

// TestAllocBudgetTCPMessages runs a program client and server making
// request/response exchanges over one TCP connection — each message a
// packet.Msg value the receiver checks — and counts the host allocations of
// the exchanges once a warm-up round has run: there are none.
func TestAllocBudgetTCPMessages(t *testing.T) {
	if instrumented {
		t.Skip("-race and slabdebug builds allocate on their own")
	}
	const rounds, cycles = 50, 3
	r := newRig(t, DefaultConfig())
	pool := packet.NewPool()
	r.a.SetPool(pool)
	r.b.SetPool(pool)
	r.b.Start("server", &tcpEcho{port: 80})
	cli := &tcpPinger{dst: packet.Addr{Node: r.b.Node(), Port: 80}, rounds: rounds}
	r.a.Start("client", cli)

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	r.run(sim.Second) // warm-up: connect, cycle 0
	// Cycle k exchanges from k simulated seconds; as in the other budgets,
	// the cheapest cycle counts.
	exchanged := uint64(1 << 62)
	for k := 1; k <= cycles; k++ {
		before := mallocs()
		r.run(sim.Duration(k+1) * sim.Second)
		exchanged = min(exchanged, mallocs()-before)
	}
	if want := uint64(rounds * (cycles + 1)); cli.got != want {
		t.Fatalf("client got %d matching responses, want %d", cli.got, want)
	}
	t.Logf("best of %d cycles: %d exchanges, %d objects", cycles, rounds, exchanged)
	if exchanged != 0 {
		t.Errorf("%d exchanges allocated %d objects, want none", rounds, exchanged)
	}
}

// tcpEcho accepts one connection and answers every request (Kind 1) on it
// with a 300-byte response (Kind 2) carrying the request's words.
type tcpEcho struct {
	port packet.Port
	sock *TCPSocket
	pc   int
	msgs []packet.Msg // read and not yet answered
}

func (e *tcpEcho) Next(t *Thread, res *Result) bool {
	if res.Err() != nil {
		return false
	}
	switch e.pc {
	case 0:
		t.Listen(e.port, 8)
	case 1:
		res.Listener.Accept(t, true)
	case 2:
		e.sock = res.TCP
		e.sock.Recv(t, 1<<20)
	case 3: // a read returned
		if res.N == 0 && len(res.Msgs()) == 0 { // EOF
			return false
		}
		e.msgs = res.Msgs()
	case 4: // answer the next request, or read more
		if len(e.msgs) == 0 {
			e.sock.Recv(t, 1<<20)
			e.pc = 3
			return true
		}
		if m := e.msgs[0]; m.Kind == 1 {
			e.sock.Send(t, 300, packet.Msg{Kind: 2, A: m.A, B: m.B, C: m.A + m.B})
		}
		e.msgs = e.msgs[1:]
		return true
	}
	e.pc++
	return true
}

// tcpPinger connects, then makes rounds request/response exchanges at the
// start of every simulated second, counting the responses that carry their
// request's words.
type tcpPinger struct {
	dst    packet.Addr
	rounds int
	sock   *TCPSocket
	pc     int
	round  int
	cycle  int
	seq    uint64
	got    uint64
}

func (p *tcpPinger) Next(t *Thread, res *Result) bool {
	if res.Err() != nil {
		return false
	}
	switch p.pc {
	case 0:
		t.Connect(p.dst)
	case 1: // connected, or the next round: send a request
		if p.sock == nil {
			p.sock = res.TCP
		}
		p.seq++
		p.sock.Send(t, 100, packet.Msg{Kind: 1, A: p.seq, B: p.seq << 16})
	case 2:
		p.sock.Recv(t, 1<<20)
	case 3: // a read returned
		want := packet.Msg{Kind: 2, A: p.seq, B: p.seq << 16, C: p.seq + p.seq<<16}
		if !slices.Contains(res.Msgs(), want) {
			p.sock.Recv(t, 1<<20)
			return true
		}
		p.got++
		p.pc = 1
		if p.round++; p.round == p.rounds {
			p.round, p.cycle = 0, p.cycle+1
			t.Sleep(sim.Time(sim.Duration(p.cycle) * sim.Second).Sub(t.Now()))
		}
		return true
	}
	p.pc++
	return true
}

// TestAllocBudgetUDPExchange runs a program client and server exchanging
// datagrams — a one-packet request answered by a three-fragment response,
// each carrying its message by value — and counts the host allocations of
// the exchanges once a warm-up round has run: there are none.
func TestAllocBudgetUDPExchange(t *testing.T) {
	if instrumented {
		t.Skip("-race and slabdebug builds allocate on their own")
	}
	const rounds, cycles = 50, 3
	r := newRig(t, DefaultConfig())
	pool := packet.NewPool()
	r.a.SetPool(pool)
	r.b.SetPool(pool)
	r.b.Start("echo", &udpEcho{port: 9000, bytes: 3000}) // three fragments
	cli := &udpPinger{dst: packet.Addr{Node: r.b.Node(), Port: 9000}, rounds: rounds}
	r.a.Start("client", cli)

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	r.run(sim.Second) // warm-up: cycle 0
	// Cycle k exchanges from k simulated seconds. As in the TCP budget, the
	// reassembly map's occasional regrowth under insert/delete churn is
	// amortized: the budget holds the cheapest cycle.
	exchanged := uint64(1 << 62)
	for k := 1; k <= cycles; k++ {
		before := mallocs()
		r.run(sim.Duration(k+1) * sim.Second)
		exchanged = min(exchanged, mallocs()-before)
	}
	if want := uint64(rounds * (cycles + 1)); cli.got != want {
		t.Fatalf("client got %d matching replies, want %d", cli.got, want)
	}
	t.Logf("best of %d cycles: %d exchanges, %d objects", cycles, rounds, exchanged)
	if exchanged != 0 {
		t.Errorf("%d exchanges allocated %d objects, want none", rounds, exchanged)
	}
}

// udpEcho answers every datagram with one of bytes bytes carrying the
// request's number.
type udpEcho struct {
	port  packet.Port
	bytes int
	sock  *UDPSocket
}

func (e *udpEcho) Next(t *Thread, res *Result) bool {
	switch {
	case e.sock == nil && res.UDP == nil:
		t.UDPSocket(e.port)
		return true
	case e.sock == nil:
		e.sock = res.UDP
	case res.Msg().Kind == 1:
		e.sock.SendTo(t, res.From, e.bytes, packet.Msg{Kind: 2, A: res.Msg().A})
		return true
	}
	e.sock.RecvFrom(t)
	return true
}

// udpPinger makes rounds request/response exchanges at the start of every
// simulated second, counting the replies that carry their request's number.
type udpPinger struct {
	dst    packet.Addr
	rounds int
	sock   *UDPSocket
	pc     int
	round  int
	cycle  int
	seq    uint64
	got    uint64
}

func (p *udpPinger) Next(t *Thread, res *Result) bool {
	switch p.pc {
	case 0:
		t.UDPSocket(0)
	case 1: // the socket, a reply or the next second: send a request
		if p.sock == nil {
			p.sock = res.UDP
		}
		p.seq++
		p.sock.SendTo(t, p.dst, 100, packet.Msg{Kind: 1, A: p.seq})
	case 2:
		p.sock.RecvFrom(t)
	case 3:
		if res.Msg() == (packet.Msg{Kind: 2, A: p.seq}) {
			p.got++
		}
		p.pc = 1
		if p.round++; p.round == p.rounds {
			p.round, p.cycle = 0, p.cycle+1
			t.Sleep(sim.Time(sim.Duration(p.cycle) * sim.Second).Sub(t.Now()))
		}
		return true
	}
	p.pc++
	return true
}

// TestPendingTimeoutBytes runs a toy memcached over UDP whose clients make
// exchanges back to back, each receive with a deadline the reply beats, so
// every exchange leaves a stale receive-timeout record pending until its
// deadline. Once the clients lengthen their deadline, the pending set grows
// by stale timeouts alone, and what the run allocates meanwhile — the queue's
// slot pages and lane node pages, and anything else — must stay within 32
// bytes per added timeout. A timeout record holding a queue slot of its own
// cost 80.
func TestPendingTimeoutBytes(t *testing.T) {
	if instrumented {
		t.Skip("-race and slabdebug builds allocate on their own")
	}
	const clients = 2
	r := newRig(t, DefaultConfig())
	pool := packet.NewPool()
	r.a.SetPool(pool)
	r.b.SetPool(pool)
	r.b.Start("memcached", &udpEcho{port: 9000, bytes: 100})
	pingers := make([]*timedPinger, clients)
	for i := range pingers {
		pingers[i] = &timedPinger{dst: packet.Addr{Node: r.b.Node(), Port: 9000}, timeout: 50 * sim.Millisecond}
		r.a.Start("client", pingers[i])
	}
	var ms runtime.MemStats
	r.run(100 * sim.Millisecond) // warm-up: every structure at its working size
	runtime.ReadMemStats(&ms)
	pending, alloc := r.eng.Pending(), ms.TotalAlloc
	for _, p := range pingers {
		p.timeout = sim.Second
	}
	r.run(800 * sim.Millisecond)
	runtime.ReadMemStats(&ms)
	added, grown := r.eng.Pending()-pending, ms.TotalAlloc-alloc
	if added < 20_000 {
		t.Fatalf("the pending set grew by %d records, want at least 20,000 stale timeouts", added)
	}
	perTimeout := float64(grown) / float64(added)
	t.Logf("%d pending records (%d added) allocated %d B: %.1f B per added timeout", r.eng.Pending(), added, grown, perTimeout)
	if perTimeout > 32 {
		t.Errorf("%.1f B allocated per pending timeout, want at most 32", perTimeout)
	}
}

// timedPinger makes request/response exchanges back to back, receiving each
// reply with a deadline of timeout.
type timedPinger struct {
	dst     packet.Addr
	timeout sim.Duration
	sock    *UDPSocket
	sent    bool
	seq     uint64
}

func (p *timedPinger) Next(t *Thread, res *Result) bool {
	switch {
	case p.sock == nil && res.UDP == nil:
		t.UDPSocket(0)
	case p.sent:
		p.sock.RecvFromTimeout(t, p.timeout)
		p.sent = false
	default:
		if p.sock == nil {
			p.sock = res.UDP
		}
		p.seq++
		p.sock.SendTo(t, p.dst, 100, packet.Msg{Kind: 1, A: p.seq})
		p.sent = true
	}
	return true
}
