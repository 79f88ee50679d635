package tcp

import (
	"slices"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// Edge-case protocol tests beyond the main suite in conn_test.go.

func TestSimultaneousClose(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var cErr, sErr error = ErrReset, ErrReset
	cDone, sDone := false, false
	p.client.OnClosed = func(err error) { cErr, cDone = err, true }
	p.server.OnClosed = func(err error) { sErr, sDone = err, true }
	p.client.OnConnected = func() {
		// Both sides close at (nearly) the same instant.
		p.client.Send(100, nil)
		p.eng.After(200*sim.Microsecond, func() { p.client.Close() })
		p.eng.After(200*sim.Microsecond, func() { p.server.Close() })
	}
	p.server.OnReadable = func() { p.server.Read(1 << 20) }
	p.connect(t)
	run(p, 10*sim.Second)
	if !cDone || !sDone {
		t.Fatalf("simultaneous close did not complete: client=%v server=%v", cDone, sDone)
	}
	if cErr != nil || sErr != nil {
		t.Fatalf("errors on simultaneous close: %v / %v", cErr, sErr)
	}
}

func TestHalfCloseDeliversRemainingData(t *testing.T) {
	// Client closes its direction, then the server streams a response
	// (half-close semantics): the client must still receive it.
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var clientGot int
	p.client.OnReadable = func() {
		n, _ := p.client.Read(1 << 20)
		clientGot += n
	}
	p.server.OnReadable = func() {
		p.server.Read(1 << 20)
		if p.server.EOF() {
			// Peer closed; we still owe a response.
			p.server.Send(50_000, nil)
			p.server.Close()
		}
	}
	p.client.OnConnected = func() {
		p.client.Send(100, nil)
		p.client.Close()
	}
	p.connect(t)
	run(p, 10*sim.Second)
	if clientGot != 50_000 {
		t.Fatalf("client received %d/50000 after half-close", clientGot)
	}
	if p.client.State() != StateClosed || p.server.State() != StateClosed {
		t.Fatalf("states: %v / %v", p.client.State(), p.server.State())
	}
}

func TestFinRetransmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinRTO = 20 * sim.Millisecond
	p := newPair(t, cfg, 50*sim.Microsecond)
	finDrops := 0
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		if pkt.TCP.Flags&packet.FlagFIN != 0 && finDrops < 2 {
			finDrops++
			return true
		}
		return false
	}
	sawEOF := false
	p.server.OnReadable = func() {
		p.server.Read(1 << 20)
		if p.server.EOF() {
			sawEOF = true
			p.server.Close()
		}
	}
	p.client.OnConnected = func() {
		p.client.Send(100, nil)
		p.client.Close()
	}
	p.connect(t)
	run(p, 10*sim.Second)
	if finDrops != 2 {
		t.Fatalf("dropped %d FINs", finDrops)
	}
	if !sawEOF {
		t.Fatal("server never saw the (retransmitted) FIN")
	}
	if p.client.Stats.Timeouts == 0 {
		t.Fatal("FIN loss must cost an RTO")
	}
}

func TestDataAfterFinRejected(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var accepted int
	p.client.OnConnected = func() {
		p.client.Send(100, nil)
		p.client.Close()
		accepted = p.client.Send(100, nil) // must be rejected
	}
	p.connect(t)
	run(p, sim.Second)
	if accepted != 0 {
		t.Fatalf("send after close accepted %d bytes", accepted)
	}
}

func TestDuplicateSynAckHarmless(t *testing.T) {
	// A retransmitted SYN-ACK after establishment must not disturb state.
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var synack *packet.Packet
	p.sEnv.drop = func(i int, pkt *packet.Packet) bool {
		if pkt.TCP.Flags&packet.FlagSYN != 0 && synack == nil {
			cp := *pkt
			synack = &cp
		}
		return false
	}
	got := 0
	p.server.OnReadable = func() {
		n, _ := p.server.Read(1 << 20)
		got += n
	}
	p.client.OnConnected = func() { p.client.Send(5000, nil) }
	p.connect(t)
	p.eng.At(sim.Time(20*sim.Millisecond), func() {
		if synack != nil {
			p.client.Input(synack) // replay
		}
	})
	run(p, 5*sim.Second)
	if got != 5000 {
		t.Fatalf("received %d/5000 with replayed SYN-ACK", got)
	}
	if p.client.State() != StateEstablished {
		t.Fatalf("client state %v after replay", p.client.State())
	}
}

func TestRetransmittedDataNotDeliveredTwice(t *testing.T) {
	// Force an ACK loss so the sender retransmits data the receiver already
	// delivered: bytes and message boundaries must not duplicate.
	cfg := DefaultConfig()
	cfg.MinRTO = 10 * sim.Millisecond
	p := newPair(t, cfg, 50*sim.Microsecond)
	ackDrops := 0
	p.sEnv.drop = func(i int, pkt *packet.Packet) bool {
		// Drop the server's first few pure ACKs.
		if pkt.PayloadBytes == 0 && pkt.TCP.Flags == packet.FlagACK && ackDrops < 3 {
			ackDrops++
			return true
		}
		return false
	}
	var bytes int
	var msgs []packet.Msg
	p.server.OnReadable = func() {
		n, ms := p.server.Read(1 << 20)
		bytes += n
		msgs = append(msgs, ms...)
	}
	p.client.OnConnected = func() {
		p.client.Send(1200, &packet.Msg{Kind: 1, A: 'a'})
		p.eng.After(100*sim.Millisecond, func() { p.client.Send(800, &packet.Msg{Kind: 1, A: 'b'}) })
	}
	p.connect(t)
	run(p, 10*sim.Second)
	if bytes != 2000 {
		t.Fatalf("delivered %d bytes, want exactly 2000 (no duplicates)", bytes)
	}
	if len(msgs) != 2 || msgs[0] != (packet.Msg{Kind: 1, A: 'a'}) || msgs[1] != (packet.Msg{Kind: 1, A: 'b'}) {
		t.Fatalf("messages = %v", msgs)
	}
	if p.client.Stats.Retransmits == 0 {
		t.Fatal("scenario did not force a retransmission")
	}
}

func TestWindowNeverExceeded(t *testing.T) {
	// Property: the receiver's unread buffer never exceeds RcvBuf even when
	// the application reads slowly.
	cfg := DefaultConfig()
	cfg.RcvBuf = 16 * 1024
	p := newPair(t, cfg, 50*sim.Microsecond)
	maxUnread := 0
	// Slow reader: 1 KB every 500 µs.
	var pump func()
	pump = func() {
		if p.server.Readable() > maxUnread {
			maxUnread = p.server.Readable()
		}
		p.server.Read(1024)
		p.eng.After(500*sim.Microsecond, pump)
	}
	p.eng.At(0, func() { pump() })
	const total = 256 * 1024
	p.client.OnConnected = func() {
		sent := 0
		var push func()
		push = func() {
			for sent < total {
				n := p.client.Send(total-sent, nil)
				if n == 0 {
					p.client.OnWritable = push
					return
				}
				sent += n
			}
			p.client.OnWritable = nil
		}
		push()
	}
	p.connect(t)
	run(p, 300*sim.Second)
	if maxUnread > cfg.RcvBuf {
		t.Fatalf("unread peaked at %d, exceeding RcvBuf %d", maxUnread, cfg.RcvBuf)
	}
	if maxUnread == 0 {
		t.Fatal("no data observed")
	}
}

func TestRTOExponentialBackoff(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg, 50*sim.Microsecond)
	// Black-hole all data segments; watch retransmission times.
	var dataTimes []sim.Time
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		if pkt.PayloadBytes > 0 {
			dataTimes = append(dataTimes, p.eng.Now())
			return true
		}
		return false
	}
	p.client.OnConnected = func() { p.client.Send(1000, nil) }
	p.connect(t)
	run(p, 30*sim.Second)
	if len(dataTimes) < 4 {
		t.Fatalf("only %d transmission attempts", len(dataTimes))
	}
	// Gaps must roughly double (Karn backoff), starting from minRTO.
	g1 := dataTimes[1].Sub(dataTimes[0])
	g2 := dataTimes[2].Sub(dataTimes[1])
	g3 := dataTimes[3].Sub(dataTimes[2])
	if g1 < cfg.MinRTO {
		t.Fatalf("first RTO %v below minRTO", g1)
	}
	if g2 < 2*g1*9/10 || g3 < 2*g2*9/10 {
		t.Fatalf("backoff not doubling: %v %v %v", g1, g2, g3)
	}
}

// TestSendBoundaryTable pins what Send attaches: nil and a zero-Kind message
// attach no boundary, any other message one, which surfaces exactly once —
// also when a retransmission carries it again over data already read, and
// when a retransmission coalesces several into one segment's list.
func TestSendBoundaryTable(t *testing.T) {
	a, b := packet.Msg{Kind: 1, A: 10, B: 20, C: 30}, packet.Msg{Kind: 2, A: 11}
	lostData := func(n *int) func(int, *packet.Packet) bool {
		return func(_ int, pkt *packet.Packet) bool {
			if pkt.PayloadBytes > 0 && *n > 0 {
				*n--
				return true
			}
			return false
		}
	}
	lostAcks := func(n *int) func(int, *packet.Packet) bool {
		return func(_ int, pkt *packet.Packet) bool {
			if pkt.PayloadBytes == 0 && pkt.TCP.Flags == packet.FlagACK && *n > 0 {
				*n--
				return true
			}
			return false
		}
	}
	for _, tc := range []struct {
		name      string
		sends     []*packet.Msg // one 500-byte Send each
		dropData  int           // the client's first data segments lost
		dropAcks  int           // the server's first pure ACKs lost
		want      []packet.Msg
		one, many int // client data segments carrying one boundary, a list
	}{
		{name: "nil", sends: []*packet.Msg{nil}},
		{name: "zero Kind", sends: []*packet.Msg{{A: 1, B: 2}}},
		{name: "Kind set", sends: []*packet.Msg{&a}, want: []packet.Msg{a}, one: 1},
		{name: "nil then Kind set", sends: []*packet.Msg{nil, &b}, want: []packet.Msg{b}, one: 1},
		{name: "retransmission over read data", sends: []*packet.Msg{&a}, dropAcks: 3, want: []packet.Msg{a}, one: 4},
		{name: "several in one retransmission", sends: []*packet.Msg{&a, &b}, dropData: 2, want: []packet.Msg{a, b}, one: 2, many: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
			dropData, dropAcks := tc.dropData, tc.dropAcks
			lose := lostData(&dropData)
			one, many := 0, 0
			p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
				switch {
				case pkt.Bounds != nil:
					if many++; pkt.Msg != (packet.Msg{}) || len(*pkt.Bounds) < 2 {
						t.Errorf("a list segment carries %+v and %d bounds", pkt.Msg, len(*pkt.Bounds))
					}
				case pkt.Msg.Kind != 0:
					one++
				case pkt.Msg != (packet.Msg{}):
					t.Errorf("segment carries a zero-Kind message %+v", pkt.Msg)
				}
				return lose(i, pkt)
			}
			p.sEnv.drop = lostAcks(&dropAcks)
			var got []packet.Msg
			read := 0
			p.server.OnReadable = func() {
				n, msgs := p.server.Read(1 << 20)
				read += n
				got = append(got, msgs...)
			}
			p.client.OnConnected = func() {
				for _, m := range tc.sends {
					if n := p.client.Send(500, m); n != 500 {
						t.Fatalf("Send accepted %d of 500 bytes", n)
					}
				}
			}
			p.connect(t)
			run(p, 10*sim.Second)
			if read != 500*len(tc.sends) {
				t.Fatalf("read %d bytes, want %d", read, 500*len(tc.sends))
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("messages %+v, want %+v", got, tc.want)
			}
			if one != tc.one || many != tc.many {
				t.Errorf("data segments: %d with one boundary, %d with a list; want %d and %d", one, many, tc.one, tc.many)
			}
			if (tc.dropData > 0 || tc.dropAcks > 0) && p.client.Stats.Retransmits == 0 {
				t.Error("the scenario forced no retransmission")
			}
		})
	}
}
