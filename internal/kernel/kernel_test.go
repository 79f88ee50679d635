package kernel

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"diablo/internal/link"
	"diablo/internal/nic"
	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/topology"
)

const gbps = int64(1_000_000_000)

// rig wires two machines back-to-back (no switch; routes are simply not
// consumed), which exercises every kernel path: NIC rings, interrupts,
// NAPI, sockets, TCP and UDP.
type rig struct {
	eng  *sim.Engine
	a, b *Machine
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	RegisterEventHandlers(eng)
	topo, err := topology.SingleRack(2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node packet.NodeID) (*Machine, *link.Link) {
		wire := link.New(eng, nil, gbps, 500*sim.Nanosecond)
		dev, err := nic.New(eng, cfg.NIC, wire)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(eng, node, cfg, topo, dev, 42)
		if err != nil {
			t.Fatal(err)
		}
		return m, wire
	}
	a, wireA := mk(0)
	b, wireB := mk(1)
	wireA.SetDst(b.NIC())
	wireB.SetDst(a.NIC())
	r := &rig{eng: eng, a: a, b: b}
	t.Cleanup(func() {
		a.Shutdown()
		b.Shutdown()
	})
	return r
}

func (r *rig) run(d sim.Duration) { r.eng.RunUntil(sim.Time(d)) }

// msgOf is the test datagram message numbered n.
func msgOf(n int) packet.Msg { return packet.Msg{Kind: 1, A: uint64(n)} }

func TestThreadComputeTiming(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var done sim.Time
	r.a.Spawn("worker", func(th *Thread) {
		th.Compute(4_000_000_000) // 1 s at 4 GHz
		done = th.Now()
	})
	r.run(2 * sim.Second)
	if done == 0 {
		t.Fatal("thread never finished")
	}
	// Spawn + context switch overheads are tiny relative to 1 s.
	if done < sim.Time(sim.Second) || done > sim.Time(sim.Second+sim.Millisecond) {
		t.Fatalf("compute finished at %v, want ~1s", done)
	}
}

func TestRoundRobinSharing(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var doneA, doneB sim.Time
	r.a.Spawn("w1", func(th *Thread) {
		th.Compute(400_000_000) // 100 ms
		doneA = th.Now()
	})
	r.a.Spawn("w2", func(th *Thread) {
		th.Compute(400_000_000) // 100 ms
		doneB = th.Now()
	})
	r.run(sim.Second)
	if doneA == 0 || doneB == 0 {
		t.Fatal("threads never finished")
	}
	// Both should finish around 200 ms (shared core), within a slice of
	// each other — not one at 100 ms and the other at 200 ms.
	if doneA < sim.Time(190*sim.Millisecond) || doneB < sim.Time(190*sim.Millisecond) {
		t.Fatalf("threads not timesharing: a=%v b=%v", doneA, doneB)
	}
	diff := doneA.Sub(doneB)
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*DefaultConfig().Profile.TimeSlice {
		t.Fatalf("finish skew %v exceeds two slices", diff)
	}
}

func TestSleepWakesOnTime(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var woke sim.Time
	r.a.Spawn("sleeper", func(th *Thread) {
		th.Sleep(5 * sim.Millisecond)
		woke = th.Now()
	})
	r.run(sim.Second)
	if woke < sim.Time(5*sim.Millisecond) || woke > sim.Time(6*sim.Millisecond) {
		t.Fatalf("woke at %v, want ~5ms", woke)
	}
}

func TestUDPPingPong(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var reply packet.Msg
	var rtt sim.Duration

	r.b.Spawn("server", func(th *Thread) {
		sock, err := th.UDPSocket(7000)
		if err != nil {
			t.Error(err)
			return
		}
		from, n, payload, err := sock.RecvFrom(th)
		if err != nil {
			t.Error(err)
			return
		}
		if n != 100 || payload != msgOf(1) {
			t.Errorf("server got n=%d payload=%v", n, payload)
		}
		th.Compute(5000) // handle the request
		if err := sock.SendTo(th, from, 200, msgOf(2)); err != nil {
			t.Error(err)
		}
	})
	r.a.Spawn("client", func(th *Thread) {
		sock, err := th.UDPSocket(0)
		if err != nil {
			t.Error(err)
			return
		}
		start := th.Now()
		dst := packet.Addr{Node: 1, Port: 7000}
		if err := sock.SendTo(th, dst, 100, msgOf(1)); err != nil {
			t.Error(err)
			return
		}
		_, n, payload, err := sock.RecvFrom(th)
		if err != nil {
			t.Error(err)
			return
		}
		if n != 200 {
			t.Errorf("client got %d bytes", n)
		}
		reply = payload
		rtt = th.Now().Sub(start)
	})
	r.run(sim.Second)
	if reply != msgOf(2) {
		t.Fatalf("reply = %v", reply)
	}
	// RTT sanity: at least two serializations + interrupt handling; well
	// under a millisecond on an idle 1 Gbps pair.
	if rtt < 2*sim.Microsecond || rtt > sim.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestUDPFragmentation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var gotN int
	var gotPayload packet.Msg
	r.b.Spawn("server", func(th *Thread) {
		sock, _ := th.UDPSocket(7000)
		_, n, p, err := sock.RecvFrom(th)
		if err != nil {
			t.Error(err)
			return
		}
		gotN, gotPayload = n, p
	})
	r.a.Spawn("client", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		if err := sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, 10_000, msgOf(3)); err != nil {
			t.Error(err)
		}
	})
	r.run(sim.Second)
	if gotN != 10_000 || gotPayload != msgOf(3) {
		t.Fatalf("reassembly failed: n=%d payload=%v", gotN, gotPayload)
	}
	// 10 KB = 7 fragments on the wire.
	if r.b.NIC().Stats.RxPackets != 7 {
		t.Fatalf("rx packets = %d, want 7", r.b.NIC().Stats.RxPackets)
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var err error
	r.a.Spawn("client", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		err = sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, MaxDatagram+1, packet.Msg{})
	})
	r.run(sim.Millisecond * 10)
	if err != ErrMsgTooLong {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPRcvBufOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UDPRcvBuf = 4000 // fits ~3 datagrams of 1200B
	r := newRig(t, cfg)
	// Server binds but never reads.
	r.b.Spawn("server", func(th *Thread) {
		_, _ = th.UDPSocket(7000)
		th.Sleep(10 * sim.Second)
	})
	r.a.Spawn("client", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		for i := 0; i < 10; i++ {
			_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, 1200, msgOf(i))
		}
	})
	r.run(sim.Second)
	var srv *UDPSocket
	for _, s := range r.b.udpSocks {
		srv = s
	}
	if srv == nil {
		t.Fatal("server socket missing")
	}
	if srv.Stats.RxDropsFull == 0 {
		t.Fatal("expected receive-buffer drops")
	}
	if srv.Stats.RxDatagrams+srv.Stats.RxDropsFull != 10 {
		t.Fatalf("conservation: %d + %d != 10", srv.Stats.RxDatagrams, srv.Stats.RxDropsFull)
	}
}

func TestTCPEndToEnd(t *testing.T) {
	r := newRig(t, DefaultConfig())
	req1, req2, response := packet.Msg{Kind: 1, A: 1}, packet.Msg{Kind: 1, A: 2}, packet.Msg{Kind: 2, A: 3}
	var serverGot []packet.Msg
	var clientGot []packet.Msg
	var cleanClose bool

	r.b.Spawn("server", func(th *Thread) {
		lis, err := th.Listen(80, 16)
		if err != nil {
			t.Error(err)
			return
		}
		sock, err := lis.Accept(th, true)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			n, msgs, err := sock.Recv(th, 1<<20)
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			serverGot = append(serverGot, msgs...)
			if n == 0 { // EOF
				break
			}
			for range msgs {
				th.Compute(20000)
			}
			if len(serverGot) == 2 {
				if err := sock.Send(th, 50_000, response); err != nil {
					t.Errorf("server send: %v", err)
				}
			}
		}
		sock.Close(th)
		cleanClose = true
	})
	r.a.Spawn("client", func(th *Thread) {
		sock, err := th.Connect(packet.Addr{Node: 1, Port: 80})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if err := sock.Send(th, 300, req1); err != nil {
			t.Error(err)
		}
		if err := sock.Send(th, 100_000, req2); err != nil {
			t.Error(err)
		}
		for {
			n, msgs, err := sock.Recv(th, 1<<20)
			if err != nil {
				t.Errorf("client recv: %v", err)
				return
			}
			clientGot = append(clientGot, msgs...)
			if len(clientGot) > 0 {
				break
			}
			if n == 0 {
				break
			}
		}
		sock.Close(th)
	})
	r.run(10 * sim.Second)
	if len(serverGot) != 2 || serverGot[0] != req1 || serverGot[1] != req2 {
		t.Fatalf("server messages = %v", serverGot)
	}
	if len(clientGot) != 1 || clientGot[0] != response {
		t.Fatalf("client messages = %v", clientGot)
	}
	if !cleanClose {
		t.Fatal("server never saw EOF/close")
	}
}

func TestEpollServer(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var got []packet.Msg
	r.b.Spawn("server", func(th *Thread) {
		s1, _ := th.UDPSocket(7001)
		s2, _ := th.UDPSocket(7002)
		ep := th.EpollCreate()
		ep.Add(th, s1, EpollIn, 1)
		ep.Add(th, s2, EpollIn, 2)
		for len(got) < 4 {
			evs := ep.Wait(th, 8, WaitForever)
			for _, ev := range evs {
				sock := ev.Sock.(*UDPSocket)
				for {
					_, _, payload, err := sock.TryRecv(th)
					if err != nil {
						break
					}
					got = append(got, payload)
				}
			}
		}
	})
	r.a.Spawn("client", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		for i := 0; i < 2; i++ {
			_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7001}, 100, msgOf(i))
			_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7002}, 100, msgOf(i+10))
			th.Sleep(sim.Millisecond)
		}
	})
	r.run(sim.Second)
	if len(got) != 4 {
		t.Fatalf("epoll server got %d messages: %v", len(got), got)
	}
}

func TestEpollTimeout(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var woke sim.Time
	var nev int
	r.a.Spawn("poller", func(th *Thread) {
		s, _ := th.UDPSocket(9000)
		ep := th.EpollCreate()
		ep.Add(th, s, EpollIn, 0)
		evs := ep.Wait(th, 8, 20*sim.Millisecond)
		nev = len(evs)
		woke = th.Now()
	})
	r.run(sim.Second)
	if nev != 0 {
		t.Fatalf("expected timeout, got %d events", nev)
	}
	if woke < sim.Time(20*sim.Millisecond) || woke > sim.Time(25*sim.Millisecond) {
		t.Fatalf("woke at %v, want ~20ms", woke)
	}
}

func TestInterruptsPreemptCompute(t *testing.T) {
	// A thread computing 10 ms while the peer blasts packets should finish
	// later than without traffic (kernel work steals the core).
	elapsed := func(traffic bool) sim.Time {
		r := newRig(t, DefaultConfig())
		var done sim.Time
		r.b.Spawn("compute", func(th *Thread) {
			_, _ = th.UDPSocket(7000) // sink: packets delivered, dropped at app level
			th.Compute(40_000_000)    // 10 ms at 4 GHz
			done = th.Now()
		})
		if traffic {
			r.a.Spawn("blaster", func(th *Thread) {
				sock, _ := th.UDPSocket(0)
				for i := 0; i < 800; i++ {
					_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, 1400, packet.Msg{})
				}
			})
		}
		r.run(sim.Second)
		return done
	}
	quiet := elapsed(false)
	busy := elapsed(true)
	if busy <= quiet {
		t.Fatalf("interrupt load did not slow compute: quiet=%v busy=%v", quiet, busy)
	}
	if busy.Sub(quiet) < 500*sim.Microsecond {
		t.Fatalf("800 packets should steal >0.5ms of CPU, stole %v", busy.Sub(quiet))
	}
}

func TestDeterminism(t *testing.T) {
	once := func() (sim.Time, uint64) {
		r := newRig(t, DefaultConfig())
		var last sim.Time
		r.b.Spawn("server", func(th *Thread) {
			sock, _ := th.UDPSocket(7000)
			for i := 0; i < 20; i++ {
				from, n, _, err := sock.RecvFrom(th)
				if err != nil {
					return
				}
				th.Compute(int64(1000 + n))
				_ = sock.SendTo(th, from, 64, packet.Msg{})
			}
		})
		r.a.Spawn("client", func(th *Thread) {
			sock, _ := th.UDPSocket(0)
			rng := th.Rand().Fork("client")
			for i := 0; i < 20; i++ {
				_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, 100+rng.Intn(1000), packet.Msg{})
				_, _, _, err := sock.RecvFrom(th)
				if err != nil {
					return
				}
				last = th.Now()
			}
		})
		r.run(sim.Second)
		return last, r.eng.Executed
	}
	t1, e1 := once()
	t2, e2 := once()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
	if t1 == 0 {
		t.Fatal("scenario did not complete")
	}
}

// TestShutdownReleasesThreads covers every state a thread can be in when the
// experiment tears down: Shutdown must unwind each one, leave no goroutine
// behind, and be safe to call again.
func TestShutdownReleasesThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	r := newRig(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		r.a.Spawn("blocked", func(th *Thread) {
			sock, _ := th.UDPSocket(0)
			_, _, _, _ = sock.RecvFrom(th) // blocks forever
		})
		r.a.Spawn("sleeping", func(th *Thread) {
			th.Sleep(sim.Second * 1000)
		})
		r.a.Spawn("exited", func(th *Thread) { th.Exit() })
		r.a.Spawn("returned", func(th *Thread) {})
	}
	r.b.Spawn("computing", func(th *Thread) { th.Compute(4_000_000_000) }) // parked mid-Compute
	r.run(10 * sim.Millisecond)
	r.a.Spawn("never scheduled", func(th *Thread) { t.Error("ran after the engine stopped") })
	for pass := 0; pass < 2; pass++ { // and once more from newRig's Cleanup
		r.a.Shutdown()
		r.b.Shutdown()
		for _, th := range slices.Concat(r.a.threads, r.b.threads) {
			if th.state != threadDead {
				t.Fatalf("thread %v not dead after shutdown", th)
			}
		}
		// A leak shows as more goroutines; fewer only means some unrelated
		// goroutine (the runtime's or another test's) exited meanwhile.
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("pass %d: %d goroutines after Shutdown, %d before the rig was built", pass, n, before)
		}
	}
}

// TestAppPanicSurfacesInRunLoop: a bug in application code must reach the
// goroutine driving the engine, with its value intact, where a test or a CLI
// can report it. (With threads as free goroutines it killed the process.)
func TestAppPanicSurfacesInRunLoop(t *testing.T) {
	r := newRig(t, DefaultConfig())
	type appBug struct{ code int }
	r.a.Spawn("buggy", func(th *Thread) {
		th.Compute(1000)
		panic(appBug{42})
	})
	defer func() {
		if got := recover(); got != (appBug{42}) {
			t.Fatalf("recovered %#v, want %#v", got, appBug{42})
		}
	}()
	r.run(sim.Second)
	t.Fatal("run returned: the panic was swallowed")
}

// TestNestedSpawnOrder pins the interleaving of threads spawned from inside
// application code. Spawn primes the new coroutine on the spot — a switch
// nested inside the spawning thread's own — and that must run none of the
// child's body: children start when the scheduler first picks them, in spawn
// order, exactly as at every earlier commit.
func TestNestedSpawnOrder(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var got []string
	mark := func(th *Thread, what string) {
		got = append(got, fmt.Sprintf("%s %s @%d", th.Name(), what, int64(th.Now())))
	}
	r.a.Spawn("parent", func(th *Thread) {
		mark(th, "start")
		th.Machine().Spawn("child1", func(c *Thread) {
			mark(c, "start")
			c.Machine().Spawn("grandchild", func(g *Thread) { mark(g, "ran") })
			c.Compute(1000)
			mark(c, "end")
		})
		mark(th, "spawned child1")
		th.Compute(1000)
		th.Machine().Spawn("child2", func(c *Thread) { mark(c, "ran") })
		th.Yield()
		mark(th, "end")
	})
	r.run(sim.Second)
	want := []string{ // recorded on the goroutine + channel hand-off this replaced
		"parent start @11500000",
		"parent spawned child1 @11500000",
		"child1 start @23725000",
		"child1 end @23975000",
		"child2 ran @35475000",
		"parent end @36975000",
		"grandchild ran @48475000",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("interleaving changed:\n got  %q\n want %q", got, want)
	}
}

func TestPortConflicts(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var err2 error
	r.a.Spawn("binder", func(th *Thread) {
		_, err1 := th.UDPSocket(5000)
		if err1 != nil {
			t.Error(err1)
		}
		_, err2 = th.UDPSocket(5000)
		lis1, errL := th.Listen(80, 8)
		if errL != nil || lis1 == nil {
			t.Errorf("listen: %v", errL)
		}
		if _, errL2 := th.Listen(80, 8); errL2 == nil {
			t.Error("duplicate listen succeeded")
		}
	})
	r.run(sim.Millisecond * 100)
	if err2 == nil {
		t.Fatal("duplicate UDP bind succeeded")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var got packet.Msg
	r.a.Spawn("self", func(th *Thread) {
		srv, _ := th.UDPSocket(6000)
		cli, _ := th.UDPSocket(0)
		_ = cli.SendTo(th, packet.Addr{Node: 0, Port: 6000}, 100, msgOf(4))
		_, _, payload, err := srv.RecvFrom(th)
		if err != nil {
			t.Error(err)
			return
		}
		got = payload
	})
	r.run(sim.Second)
	if got != msgOf(4) {
		t.Fatalf("loopback payload = %v", got)
	}
	if r.a.Stats.LoopbackPkts == 0 {
		t.Fatal("loopback counter not incremented")
	}
}

func TestProfileValidate(t *testing.T) {
	good := Linux2639()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SyscallInstr = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero syscall cost validated")
	}
	if _, err := ProfileByName("3.5.7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("9.9"); err == nil {
		t.Fatal("unknown profile resolved")
	}
}

func TestNewerKernelIsFaster(t *testing.T) {
	// The same UDP ping-pong must complete sooner on Linux 3.5.7 than on
	// 2.6.39 — the Figure 14 mechanism at micro scale.
	run := func(prof Profile) sim.Time {
		cfg := DefaultConfig()
		cfg.Profile = prof
		r := newRig(t, cfg)
		var done sim.Time
		r.b.Spawn("server", func(th *Thread) {
			sock, _ := th.UDPSocket(7000)
			for {
				from, _, _, err := sock.RecvFrom(th)
				if err != nil {
					return
				}
				_ = sock.SendTo(th, from, 100, packet.Msg{})
			}
		})
		r.a.Spawn("client", func(th *Thread) {
			sock, _ := th.UDPSocket(0)
			for i := 0; i < 50; i++ {
				_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, 100, packet.Msg{})
				_, _, _, err := sock.RecvFrom(th)
				if err != nil {
					return
				}
			}
			done = th.Now()
		})
		r.run(sim.Second)
		return done
	}
	old := run(Linux2639())
	newer := run(Linux357())
	if old == 0 || newer == 0 {
		t.Fatal("scenario did not complete")
	}
	if newer >= old {
		t.Fatalf("3.5.7 (%v) not faster than 2.6.39 (%v)", newer, old)
	}
}
