package kernel

import (
	"runtime"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// TestAllocBudgetToyMemcached runs a toy memcached over TCP — an epoll
// server answering every request on each of its connections, a client
// keeping conns connections and making one request at a time on each, with
// pointer payloads — and counts the host allocations of its phases. Once a
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
	type msg struct{ id int }
	req, resp := &msg{1}, &msg{2}

	r.b.Spawn("memcached", func(th *Thread) {
		lis, err := th.Listen(srv.Port, 128)
		if err != nil {
			panic(err)
		}
		ep := th.EpollCreate()
		ep.Add(th, lis, EpollIn, nil)
		for {
			for _, ev := range ep.Wait(th, 64, WaitForever) {
				if ev.Sock == Pollable(lis) {
					if s, err := lis.TryAccept(th, true); err == nil {
						ep.Add(th, s, EpollIn, nil)
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
					for range msgs {
						s.Send(th, 300, resp)
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
		exchange := func(n int) {
			for range n {
				for _, s := range socks {
					s.Send(th, 100, req)
					for got := false; !got; {
						_, msgs, err := s.Recv(th, 1<<20)
						if err != nil {
							panic(err)
						}
						for _, m := range msgs {
							got = got || m == resp
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
