package kernel

import (
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

func TestBarrierTwoPhase(t *testing.T) {
	r := newRig(t, DefaultConfig())
	const n = 4
	b := NewBarrier(r.a, n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		r.a.Spawn("worker", func(th *Thread) {
			for round := 0; round < 3; round++ {
				th.Compute(int64(1000 * (i + 1))) // skewed arrival
				b.Wait(th)
				order = append(order, round)
			}
		})
	}
	r.run(sim.Second)
	if len(order) != 3*n {
		t.Fatalf("completed %d waits, want %d", len(order), 3*n)
	}
	// Rounds must not interleave: all of round k before any of round k+1.
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("barrier rounds interleaved: %v", order)
		}
	}
}

func TestEpollKick(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var rounds int
	var ep *Epoll
	r.a.Spawn("poller", func(th *Thread) {
		s, _ := th.UDPSocket(9100)
		ep = th.EpollCreate()
		ep.Add(th, s, EpollIn, 0)
		for rounds < 2 {
			evs := ep.Wait(th, 8, WaitForever)
			rounds++
			_ = evs
		}
	})
	// Two kicks from event context unblock the infinite waits.
	r.eng.At(sim.Time(2*sim.Millisecond), func() { ep.Kick() })
	r.eng.At(sim.Time(4*sim.Millisecond), func() { ep.Kick() })
	r.run(100 * sim.Millisecond)
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (kicks lost)", rounds)
	}
}

func TestListenerBacklogRefusesSyn(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Server listens with backlog 1 and never accepts; a flood of connects
	// must leave refusals behind.
	var lis *TCPListener
	r.b.Spawn("server", func(th *Thread) {
		l, err := th.Listen(80, 1)
		if err != nil {
			t.Error(err)
			return
		}
		lis = l
		th.Sleep(1000 * sim.Second)
	})
	results := make([]error, 0, 4)
	r.a.Spawn("clients", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		for i := 0; i < 4; i++ {
			_, err := th.Connect(packet.Addr{Node: 1, Port: 80})
			results = append(results, err)
		}
	})
	r.run(30 * sim.Second)
	if lis == nil {
		t.Fatal("listener missing")
	}
	if lis.Stats.Refused == 0 {
		t.Fatalf("no SYNs refused despite backlog 1 (results: %v)", results)
	}
}
