package kernel

import (
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

func TestRecvFromTimeout(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var first, second error
	var wokeAt sim.Time
	r.a.Spawn("receiver", func(th *Thread) {
		sock, _ := th.UDPSocket(6000)
		// Nothing arrives: times out.
		_, _, _, first = sock.RecvFromTimeout(th, 10*sim.Millisecond)
		wokeAt = th.Now()
		// Something arrives before the deadline: delivered.
		_, _, _, second = sock.RecvFromTimeout(th, 100*sim.Millisecond)
	})
	r.b.Spawn("sender", func(th *Thread) {
		th.Sleep(30 * sim.Millisecond)
		sock, _ := th.UDPSocket(0)
		_ = sock.SendTo(th, packet.Addr{Node: 0, Port: 6000}, 100, msgOf(1))
	})
	r.run(sim.Second)
	if first != ErrWouldBlock {
		t.Fatalf("first recv err = %v, want would-block", first)
	}
	if wokeAt < sim.Time(10*sim.Millisecond) || wokeAt > sim.Time(12*sim.Millisecond) {
		t.Fatalf("timeout woke at %v, want ~10ms", wokeAt)
	}
	if second != nil {
		t.Fatalf("second recv err = %v", second)
	}
}

// TestTCPStatsAggregation checks the machine totals over three connections
// on the lossless rig: every segment one machine sends, the other receives,
// and so every byte. It reads them once mid-connection, while the second
// connection idles between its send and its close, and once after all three
// closed.
func TestTCPStatsAggregation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.b.Spawn("server", func(th *Thread) {
		lis, _ := th.Listen(80, 8)
		for {
			sock, err := lis.Accept(th, true)
			if err != nil {
				return
			}
			for {
				n, _, err := sock.Recv(th, 1<<20)
				if err != nil || n == 0 {
					break
				}
			}
			sock.Close(th)
		}
	})
	r.a.Spawn("client", func(th *Thread) {
		for i := 0; i < 3; i++ {
			sock, err := th.Connect(packet.Addr{Node: 1, Port: 80})
			if err != nil {
				return
			}
			_ = sock.Send(th, 10_000, packet.Msg{})
			th.Sleep(20 * sim.Millisecond)
			sock.Close(th)
			th.Sleep(10 * sim.Millisecond)
		}
	})
	balanced := func(when string, bytes uint64) {
		t.Helper()
		a, b := r.a.TCPStats(), r.b.TCPStats()
		if a.SegsOut == 0 || a.SegsOut != b.SegsIn || b.SegsOut != a.SegsIn {
			t.Fatalf("%s: segments out/in %d/%d (client), %d/%d (server): want each side's out the other's in", when, a.SegsOut, a.SegsIn, b.SegsOut, b.SegsIn)
		}
		if a.BytesOut != bytes || b.BytesIn != bytes || b.BytesOut != 0 || a.BytesIn != 0 {
			t.Fatalf("%s: bytes out/in %d/%d (client), %d/%d (server): want %d one way", when, a.BytesOut, a.BytesIn, b.BytesOut, b.BytesIn, bytes)
		}
	}
	r.run(40 * sim.Millisecond) // the second connection is open and idle
	if n := len(r.a.conns); n != 1 {
		t.Fatalf("client holds %d connections mid-run, want 1", n)
	}
	balanced("mid-connection", 20_000)
	r.run(5 * sim.Second)
	// Closed-connection stats must be preserved in the machine aggregate.
	if n := len(r.a.conns) + len(r.b.conns); n != 0 {
		t.Fatalf("%d connections left after all closed", n)
	}
	balanced("after close", 30_000)
}

func TestEpollDel(t *testing.T) {
	r := newRig(t, DefaultConfig())
	got := 0
	r.a.Spawn("poller", func(th *Thread) {
		s1, _ := th.UDPSocket(7001)
		s2, _ := th.UDPSocket(7002)
		ep := th.EpollCreate()
		ep.Add(th, s1, EpollIn, 1)
		ep.Add(th, s2, EpollIn, 2)
		ep.Del(th, s1) // deregistered: its traffic must not surface
		for th.Now() < sim.Time(50*sim.Millisecond) {
			evs := ep.Wait(th, 8, 10*sim.Millisecond)
			for _, ev := range evs {
				if ev.Data == 1 {
					t.Error("event for deleted registration")
				}
				got++
				sock := ev.Sock.(*UDPSocket)
				for {
					if _, _, _, err := sock.TryRecv(th); err != nil {
						break
					}
				}
			}
		}
	})
	r.b.Spawn("sender", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		th.Sleep(sim.Millisecond)
		_ = sock.SendTo(th, packet.Addr{Node: 0, Port: 7001}, 100, packet.Msg{})
		_ = sock.SendTo(th, packet.Addr{Node: 0, Port: 7002}, 100, packet.Msg{})
	})
	r.run(sim.Second)
	if got == 0 {
		t.Fatal("no events for the remaining registration")
	}
}

func TestQdiscBackpressureAndDrops(t *testing.T) {
	// A burst far beyond ring+qdisc must drop at the qdisc, and the counts
	// must add up.
	cfg := DefaultConfig()
	cfg.NIC.TxRing = 8
	cfg.QdiscLen = 16
	r := newRig(t, cfg)
	const burst = 2000
	r.a.Spawn("blaster", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		for i := 0; i < burst; i++ {
			_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 9999}, 1400, packet.Msg{})
		}
	})
	r.run(sim.Second)
	sent := r.a.NIC().Stats.TxPackets
	dropped := r.a.Stats.QdiscDrops
	if dropped == 0 {
		t.Fatal("expected qdisc drops for a line-rate burst")
	}
	if sent+dropped != burst {
		t.Fatalf("conservation: %d sent + %d dropped != %d", sent, dropped, burst)
	}
}

func TestYield(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var order []int
	r.a.Spawn("a", func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, 1)
			th.Yield()
		}
	})
	r.a.Spawn("b", func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, 2)
			th.Yield()
		}
	})
	r.run(100 * sim.Millisecond)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// Yield must interleave the two threads rather than run one to
	// completion.
	same := 0
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("threads not interleaving: %v", order)
	}
}
