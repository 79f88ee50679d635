package tcp

import (
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// testEnv is a loopback host: segments are delivered to the peer connection
// after a fixed one-way delay, with optional drop, extra-delay (reorder) and
// duplicate functions. Like the kernel it schedules timer records, and it
// recycles delivered segments, so the harness itself allocates nothing in
// steady state; plainEnv hides AtEvent to exercise the closure fallback.
type testEnv struct {
	eng   *sim.Engine
	peer  *Conn
	delay sim.Duration
	drop  func(i int, pkt *packet.Packet) bool
	sent  int
	// jitter, if set, adds to the delay of segment i: a segment delayed past
	// a later one arrives after it.
	jitter func(i int, pkt *packet.Packet) sim.Duration
	// dup, if set, delivers a copy of segment i that much later again.
	dup  func(i int, pkt *packet.Packet) (sim.Duration, bool)
	free []*packet.Packet // segments the peer has consumed
}

func (e *testEnv) NewPacket() *packet.Packet {
	if n := len(e.free); n > 0 {
		pkt := e.free[n-1]
		e.free = e.free[:n-1]
		return pkt
	}
	return &packet.Packet{}
}

func (e *testEnv) Now() sim.Time                                { return e.eng.Now() }
func (e *testEnv) At(t sim.Time, fn func()) sim.EventID         { return e.eng.At(t, fn) }
func (e *testEnv) AtEvent(t sim.Time, ev sim.Event) sim.EventID { return e.eng.AtEvent(t, ev) }
func (e *testEnv) Cancel(id sim.EventID)                        { e.eng.Cancel(id) }
func (e *testEnv) Output(pkt *packet.Packet) {
	i := e.sent
	e.sent++
	if e.drop != nil && e.drop(i, pkt) {
		return
	}
	d := e.delay
	if e.jitter != nil {
		d += e.jitter(i, pkt)
	}
	if e.dup != nil {
		if extra, ok := e.dup(i, pkt); ok {
			cp := *pkt
			e.deliver(d+extra, &cp)
		}
	}
	e.deliver(d, pkt)
}

// deliver hands pkt to the peer d from now, as a typed record.
func (e *testEnv) deliver(d sim.Duration, pkt *packet.Packet) {
	e.eng.AtEvent(e.eng.Now().Add(d), sim.Event{Kind: sim.EvAppTick, Tgt: e, Ref: pkt})
}

// deliverSeg is the harness's EvAppTick handler: the peer consumes the
// segment, which then returns to its sender's free list.
func deliverSeg(_ sim.Time, ev sim.Event) {
	e, pkt := ev.Tgt.(*testEnv), ev.Ref.(*packet.Packet)
	e.peer.Input(pkt)
	*pkt = packet.Packet{}
	e.free = append(e.free, pkt)
}

// plainEnv is a testEnv without AtEvent.
type plainEnv struct{ e *testEnv }

func (p plainEnv) NewPacket() *packet.Packet            { return p.e.NewPacket() }
func (p plainEnv) Now() sim.Time                        { return p.e.Now() }
func (p plainEnv) At(t sim.Time, fn func()) sim.EventID { return p.e.At(t, fn) }
func (p plainEnv) Cancel(id sim.EventID)                { p.e.Cancel(id) }
func (p plainEnv) Output(pkt *packet.Packet)            { p.e.Output(pkt) }

// pair builds a connected client/server pair over loopback envs.
type pair struct {
	eng    *sim.Engine
	client *Conn
	server *Conn
	cEnv   *testEnv
	sEnv   *testEnv
}

func newPair(t *testing.T, cfg Config, delay sim.Duration) *pair {
	t.Helper()
	eng := sim.NewEngine()
	eng.RegisterHandler(sim.EvAppTick, deliverSeg)
	cEnv := &testEnv{eng: eng, delay: delay}
	sEnv := &testEnv{eng: eng, delay: delay}
	ca := packet.Addr{Node: 0, Port: 40000}
	sa := packet.Addr{Node: 1, Port: 80}
	client, err := NewClient(cEnv, cfg, ca, sa)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(sEnv, cfg, sa, ca)
	if err != nil {
		t.Fatal(err)
	}
	// Wire outputs: the first client segment (SYN) must create the server
	// side; we pre-create it, so just route SYNs to HandleSyn.
	cEnv.peer = server
	sEnv.peer = client
	origDrop := cEnv.drop
	cEnv.drop = origDrop
	return &pair{eng: eng, client: client, server: server, cEnv: cEnv, sEnv: sEnv}
}

// connect opens the client and handles the SYN at the server.
func (p *pair) connect(t *testing.T) {
	t.Helper()
	// Server: intercept the SYN.
	p.cEnv.peer = nil
	inner := p.cEnv.drop
	p.cEnv.drop = nil
	seenSyn := false
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		if inner != nil && inner(i, pkt) {
			return true
		}
		if pkt.TCP.Flags&packet.FlagSYN != 0 && pkt.TCP.Flags&packet.FlagACK == 0 && !seenSyn {
			seenSyn = true
			p.cEnv.eng.After(p.cEnv.delay, func() { p.server.HandleSyn(pkt) })
			return true
		}
		return false
	}
	p.cEnv.peer = p.server
	p.eng.At(p.eng.Now(), func() { p.client.Open() })
}

func run(p *pair, until sim.Duration) { p.eng.RunUntil(sim.Time(until)) }

func TestHandshake(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var cUp, sUp bool
	p.client.OnConnected = func() { cUp = true }
	p.server.OnConnected = func() { sUp = true }
	p.connect(t)
	run(p, sim.Second)
	if !cUp || !sUp {
		t.Fatalf("handshake incomplete: client=%v server=%v", cUp, sUp)
	}
	if p.client.State() != StateEstablished || p.server.State() != StateEstablished {
		t.Fatalf("states: %v / %v", p.client.State(), p.server.State())
	}
}

func TestSynLossRetransmitted(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var up bool
	p.client.OnConnected = func() { up = true }
	drops := 0
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		// Drop the first two SYN attempts.
		if pkt.TCP.Flags&packet.FlagSYN != 0 && drops < 2 {
			drops++
			return true
		}
		return false
	}
	p.connect(t)
	run(p, 10*sim.Second)
	if !up {
		t.Fatal("connection never established despite SYN retries")
	}
	// Initial RTO 1s, doubled: established after ~3s.
	if now := p.eng.Now(); now < sim.Time(2*sim.Second) {
		t.Fatalf("established too early (%v) for two SYN losses", now)
	}
	if p.client.Stats.Retransmits < 2 {
		t.Fatalf("SYN retransmits = %d", p.client.Stats.Retransmits)
	}
}

func TestBulkTransferLossless(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var gotBytes int
	var gotMsgs []packet.Msg
	p.server.OnReadable = func() {
		n, msgs := p.server.Read(1 << 30)
		gotBytes += n
		gotMsgs = append(gotMsgs, msgs...)
	}
	const total = 256 * 1024
	p.client.OnConnected = func() {
		sent := 0
		var push func()
		push = func() {
			for sent < total {
				n := p.client.Send(total-sent, &packet.Msg{Kind: 1, A: total})
				if n == 0 {
					p.client.OnWritable = push
					return
				}
				sent += n
				if sent == total {
					p.client.OnWritable = nil
				}
			}
		}
		push()
	}
	p.connect(t)
	run(p, 10*sim.Second)
	if gotBytes != total {
		t.Fatalf("received %d/%d bytes", gotBytes, total)
	}
	if len(gotMsgs) != 1 || gotMsgs[0] != (packet.Msg{Kind: 1, A: total}) {
		t.Fatalf("messages = %v", gotMsgs)
	}
	if p.client.Stats.Retransmits != 0 {
		t.Fatalf("lossless transfer retransmitted %d", p.client.Stats.Retransmits)
	}
}

func TestFastRetransmit(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	// Drop one mid-window data segment once.
	dropped := false
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		if !dropped && pkt.PayloadBytes > 0 && pkt.TCP.Seq > 4*uint32(packet.MSS) {
			dropped = true
			return true
		}
		return false
	}
	const total = 128 * 1024
	var gotBytes int
	var doneAt sim.Time
	p.server.OnReadable = func() {
		n, _ := p.server.Read(1 << 30)
		gotBytes += n
		if gotBytes >= total && doneAt == 0 {
			doneAt = p.eng.Now()
		}
	}
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
	run(p, 10*sim.Second)
	if gotBytes != total {
		t.Fatalf("received %d/%d", gotBytes, total)
	}
	if p.client.Stats.FastRetransmits == 0 {
		t.Fatal("expected a fast retransmit")
	}
	if p.client.Stats.Timeouts != 0 {
		t.Fatalf("single loss should not need an RTO, got %d", p.client.Stats.Timeouts)
	}
	// Recovery must finish well before the 200 ms minRTO would have fired.
	if doneAt > sim.Time(150*sim.Millisecond) {
		t.Fatalf("fast recovery too slow: done at %v", doneAt)
	}
}

func TestWholeWindowLossCausesRTO(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg, 50*sim.Microsecond)
	// Drop every data segment in a window starting at the 3rd, until time
	// passes 1 ms; the lost tail cannot trigger 3 dupacks.
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		return pkt.PayloadBytes > 0 && pkt.TCP.Seq > 2*uint32(packet.MSS) &&
			p.eng.Now() < sim.Time(sim.Millisecond)
	}
	var gotBytes int
	p.server.OnReadable = func() {
		n, _ := p.server.Read(1 << 30)
		gotBytes += n
	}
	const total = 64 * 1024
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
	run(p, 10*sim.Second)
	if gotBytes != total {
		t.Fatalf("received %d/%d", gotBytes, total)
	}
	if p.client.Stats.Timeouts == 0 {
		t.Fatal("tail loss must cause an RTO")
	}
	// The stall must reflect minRTO=200ms: completion after at least that.
	if now := p.eng.Now(); now < sim.Time(200*sim.Millisecond) {
		t.Fatalf("completed at %v, before a 200ms RTO could fire", now)
	}
}

func TestOrderlyClose(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var cClosed, sClosed error = ErrReset, ErrReset
	cDone, sDone := false, false
	p.client.OnClosed = func(err error) { cClosed, cDone = err, true }
	p.server.OnClosed = func(err error) { sClosed, sDone = err, true }
	p.server.OnReadable = func() {
		p.server.Read(1 << 30)
		if p.server.EOF() {
			p.server.Close()
		}
	}
	p.client.OnConnected = func() {
		p.client.Send(1000, &packet.Msg{Kind: 1})
		p.client.Close()
	}
	p.connect(t)
	run(p, 10*sim.Second)
	if !cDone || !sDone {
		t.Fatalf("close incomplete: client=%v server=%v", cDone, sDone)
	}
	if cClosed != nil || sClosed != nil {
		t.Fatalf("orderly close reported errors: %v / %v", cClosed, sClosed)
	}
}

func TestAbortDeliversReset(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	var sErr error
	p.server.OnClosed = func(err error) { sErr = err }
	p.client.OnConnected = func() { p.client.Abort() }
	p.connect(t)
	run(p, sim.Second)
	if sErr != ErrReset {
		t.Fatalf("server close err = %v, want reset", sErr)
	}
}

func TestZeroWindowAndPersist(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RcvBuf = 8 * 1024
	p := newPair(t, cfg, 50*sim.Microsecond)
	// Server does not read until 1 s in.
	var gotBytes int
	readNow := func() {
		n, _ := p.server.Read(1 << 30)
		gotBytes += n
	}
	const total = 64 * 1024
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
	p.eng.At(sim.Time(sim.Second), func() {
		p.server.OnReadable = readNow
		readNow()
	})
	p.eng.RunUntil(sim.Time(30 * sim.Second))
	if gotBytes != total {
		t.Fatalf("received %d/%d after window reopened", gotBytes, total)
	}
}

func TestMessageBoundariesWithLoss(t *testing.T) {
	// Send 50 messages of varying sizes under 10% deterministic loss;
	// all messages must arrive exactly once, in order.
	cfg := DefaultConfig()
	p := newPair(t, cfg, 100*sim.Microsecond)
	rng := sim.NewRand(99)
	p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
		return pkt.PayloadBytes > 0 && rng.Float64() < 0.10
	}
	sEnvRng := sim.NewRand(77)
	p.sEnv.drop = func(i int, pkt *packet.Packet) bool {
		return sEnvRng.Float64() < 0.05
	}

	sizes := make([]int, 50)
	szRng := sim.NewRand(5)
	for i := range sizes {
		sizes[i] = 1 + szRng.Intn(20000)
	}

	var got []packet.Msg
	p.server.OnReadable = func() {
		_, msgs := p.server.Read(1 << 30)
		got = append(got, msgs...)
	}
	p.client.OnConnected = func() {
		msg := 0
		sentInMsg := 0
		var push func()
		push = func() {
			for msg < len(sizes) {
				remaining := sizes[msg] - sentInMsg
				n := p.client.Send(remaining, &packet.Msg{Kind: 1, A: uint64(msg), B: uint64(sizes[msg])})
				if n == 0 {
					p.client.OnWritable = push
					return
				}
				sentInMsg += n
				if sentInMsg == sizes[msg] {
					msg++
					sentInMsg = 0
				}
			}
			p.client.OnWritable = nil
		}
		push()
	}
	p.connect(t)
	run(p, 120*sim.Second)
	if len(got) != len(sizes) {
		t.Fatalf("delivered %d/%d messages", len(got), len(sizes))
	}
	for i, m := range got {
		if m != (packet.Msg{Kind: 1, A: uint64(i), B: uint64(sizes[i])}) {
			t.Fatalf("message %d out of order: got %+v", i, m)
		}
	}
}

func TestDelayedAck(t *testing.T) {
	p := newPair(t, DefaultConfig(), 10*sim.Microsecond)
	var gotBytes int
	p.server.OnReadable = func() {
		n, _ := p.server.Read(1 << 30)
		gotBytes += n
	}
	p.client.OnConnected = func() { p.client.Send(100, nil) }
	p.connect(t)
	run(p, sim.Second)
	if gotBytes != 100 {
		t.Fatalf("got %d bytes", gotBytes)
	}
	// One small segment: the ACK must have been delayed (~40 ms), meaning
	// the sender's una only advanced after the delack timeout.
	if p.client.flight() != 0 {
		t.Fatal("segment never acked")
	}
}

func TestCwndGrowth(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg, 50*sim.Microsecond)
	var gotBytes int
	p.server.OnReadable = func() {
		n, _ := p.server.Read(1 << 30)
		gotBytes += n
	}
	const total = 512 * 1024
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
	run(p, 10*sim.Second)
	if gotBytes != total {
		t.Fatalf("received %d/%d", gotBytes, total)
	}
	// cwnd must have grown beyond the initial window.
	if int(p.client.cwnd) <= cfg.InitCwnd*cfg.MSS {
		t.Fatalf("cwnd = %d never grew past initial %d", p.client.cwnd, cfg.InitCwnd*cfg.MSS)
	}
	if p.client.SRTT() <= 0 {
		t.Fatal("no RTT samples taken")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MSS = 0 },
		func(c *Config) { c.MSS = packet.MSS + 1 },
		func(c *Config) { c.SndBuf = 10 },
		func(c *Config) { c.InitCwnd = 0 },
		func(c *Config) { c.MinRTO = 0 },
		func(c *Config) { c.MaxRTO = c.MinRTO - 1 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should not validate", i)
		}
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xFFFFFFF0, 0x10) {
		t.Fatal("wraparound compare broken")
	}
	if seqLT(5, 5) || !seqLEQ(5, 5) {
		t.Fatal("equality compare broken")
	}
}
