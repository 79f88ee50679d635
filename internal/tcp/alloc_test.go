package tcp

import (
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// TestAllocFreeExchange pins the allocation-free data path: once the
// handshake and a warm-up are done, a request/response exchange allocates
// nothing — no boundary storage, no message on the segment, no Read result,
// no timer closure. Every request and response is a distinct packet.Msg
// value, as an application's are, and each response must arrive carrying
// what the server put in it for that request.
func TestAllocFreeExchange(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	const kindReq, kindResp = 1, 2
	respTo := func(m packet.Msg) packet.Msg { return packet.Msg{Kind: kindResp, A: m.A, B: 3 * m.A, C: m.B} }
	p.server.OnReadable = func() {
		_, msgs := p.server.Read(1 << 20)
		for _, m := range msgs {
			resp := respTo(m)
			p.server.Send(300, &resp)
		}
	}
	var seq uint64
	got, bad := 0, 0
	p.client.OnReadable = func() {
		_, msgs := p.client.Read(1 << 20)
		for _, m := range msgs {
			if got++; m != respTo(packet.Msg{Kind: kindReq, A: seq, B: seq << 32}) {
				bad++
			}
		}
	}
	p.connect(t)
	run(p, 10*sim.Millisecond)
	exchange := func() {
		seq++
		p.client.Send(100, &packet.Msg{Kind: kindReq, A: seq, B: seq << 32})
		p.eng.RunUntil(p.eng.Now().Add(sim.Millisecond))
	}
	for range 10 {
		exchange()
	}
	if got != 10 {
		t.Fatalf("warm-up got %d responses, want 10", got)
	}
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Errorf("%v allocations per steady-state exchange, want 0", allocs)
	}
	if got != 111 { // AllocsPerRun makes one extra, unmeasured run
		t.Fatalf("got %d responses, want 111", got)
	}
	if bad != 0 {
		t.Fatalf("%d of %d responses carried another request's content", bad, got)
	}
}

// TestPlainEnvTimers runs the client's timers through an Env without AtEvent,
// which NewClient wraps to arm them as closures: a lost SYN must still be
// retransmitted.
func TestPlainEnvTimers(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	c, err := NewClient(plainEnv{p.cEnv}, DefaultConfig(), p.client.Local, p.client.Remote)
	if err != nil {
		t.Fatal(err)
	}
	p.client, p.sEnv.peer = c, c
	up := false
	p.client.OnConnected = func() { up = true }
	dropped := false
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		if pkt.TCP.Flags&packet.FlagSYN != 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.connect(t)
	run(p, 5*sim.Second)
	if !up || p.client.Stats.Timeouts == 0 {
		t.Fatalf("established=%v after %d timeouts, want a retransmitted SYN", up, p.client.Stats.Timeouts)
	}
}
