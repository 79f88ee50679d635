package tcp

import (
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// These tests pin the behavior the fault-injection experiments lean on: a
// connection crossing an impaired link must degrade through the visible
// TCP machinery (timeouts, exponential backoff, retransmissions) and then
// recover, as long as the outage is shorter than the retry budget.

// sendAll pushes total bytes through the client as window space opens.
func sendAll(p *pair, total int) {
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
}

// TestFlapShorterThanRetryBudgetSurvives blacks out both directions for
// 1.5 s mid-transfer — the link-flap shape the fault layer injects. With a
// 200 ms min RTO and a 120 s max RTO the flap sits far inside the retry
// budget, so the connection must ride it out on backed-off timeouts and
// deliver every byte after the link returns.
func TestFlapShorterThanRetryBudgetSurvives(t *testing.T) {
	p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
	flapStart := sim.Time(300 * sim.Microsecond)
	flapEnd := flapStart.Add(1500 * sim.Millisecond)
	down := func(i int, pkt *packet.Packet) bool {
		now := p.eng.Now()
		return now >= flapStart && now < flapEnd
	}
	p.cEnv.drop = down
	p.sEnv.drop = down

	const total = 256 * 1024
	var gotBytes int
	var doneAt sim.Time
	p.server.OnReadable = func() {
		n, _ := p.server.Read(1 << 30)
		gotBytes += n
		if gotBytes >= total && doneAt == 0 {
			doneAt = p.eng.Now()
		}
	}
	sendAll(p, total)
	p.connect(t)
	run(p, 30*sim.Second)

	if gotBytes != total {
		t.Fatalf("received %d/%d bytes after flap", gotBytes, total)
	}
	if p.client.State() != StateEstablished || p.client.Err() != nil {
		t.Fatalf("connection did not survive: state=%v err=%v", p.client.State(), p.client.Err())
	}
	// A 1.5 s blackout against a 200 ms min RTO burns several backed-off
	// timeouts (≈200, 400, 800 ms ...) before a retransmit lands.
	if p.client.Stats.Timeouts < 2 {
		t.Fatalf("timeouts = %d, want ≥2 (backoff must be observable)", p.client.Stats.Timeouts)
	}
	if p.client.Stats.Retransmits < p.client.Stats.Timeouts {
		t.Fatalf("retransmits %d < timeouts %d", p.client.Stats.Retransmits, p.client.Stats.Timeouts)
	}
	// Backoff doubles RTO on each timeout; after ≥2 timeouts it must sit
	// above the configured floor until fresh RTT samples pull it back down.
	if p.client.RTO() < DefaultConfig().MinRTO {
		t.Fatalf("RTO %v below min after recovery", p.client.RTO())
	}
	if doneAt <= flapEnd {
		t.Fatalf("transfer finished at %v, inside the flap window ending %v", doneAt, flapEnd)
	}
}

// TestSeededLossIsDeterministic drives the transfer through a seeded
// sim.Rand loss process — the same stream discipline the fault layer uses —
// and checks both that TCP recovers and that two identical runs produce
// identical protocol statistics. Divergence here would mean loss decisions
// leak entropy from outside the seed.
func TestSeededLossIsDeterministic(t *testing.T) {
	const total = 128 * 1024
	type outcome struct {
		bytes                           int
		retransmits, timeouts, fastRexs uint64
		doneAt                          sim.Time
	}
	runOnce := func() outcome {
		p := newPair(t, DefaultConfig(), 50*sim.Microsecond)
		r := sim.NewRand(sim.DeriveSeed(7, "tcp/loss-test"))
		p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
			return pkt.PayloadBytes > 0 && r.Float64() < 0.2
		}
		var o outcome
		p.server.OnReadable = func() {
			n, _ := p.server.Read(1 << 30)
			o.bytes += n
			if o.bytes >= total && o.doneAt == 0 {
				o.doneAt = p.eng.Now()
			}
		}
		sendAll(p, total)
		p.connect(t)
		run(p, 120*sim.Second)
		o.retransmits = p.client.Stats.Retransmits
		o.timeouts = p.client.Stats.Timeouts
		o.fastRexs = p.client.Stats.FastRetransmits
		return o
	}

	first := runOnce()
	if first.bytes != total {
		t.Fatalf("received %d/%d bytes under 20%% loss", first.bytes, total)
	}
	if first.retransmits == 0 {
		t.Fatal("20% loss produced no retransmissions")
	}
	if second := runOnce(); first != second {
		t.Fatalf("seeded loss replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestMessageBoundaryProperty streams messages of 1 B to 3×MSS through loss,
// reordering and duplication in both directions, read back in random-sized
// chunks: every message must surface exactly once, in order, with the content
// it was sent with (its index and size), in the Read whose consumed range
// first covers its last byte. Across the seeds the
// data segments must have carried no, one and several boundaries, and some must
// have carried a boundary the reader had already consumed (a retransmission
// overlapping delivered data).
func TestMessageBoundaryProperty(t *testing.T) {
	var bare, one, many, stale int
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.MinRTO = 10 * sim.Millisecond
		p := newPair(t, cfg, 50*sim.Microsecond)
		r := sim.NewRand(sim.DeriveSeed(seed, "tcp/boundary-property"))
		impair := func(e *testEnv) {
			e.drop = func(i int, pkt *packet.Packet) bool { return r.Float64() < 0.05 }
			e.jitter = func(i int, pkt *packet.Packet) sim.Duration {
				if r.Float64() < 0.1 {
					return sim.Duration(r.Intn(int(200 * sim.Microsecond)))
				}
				return 0
			}
			e.dup = func(i int, pkt *packet.Packet) (sim.Duration, bool) {
				return sim.Duration(r.Intn(int(500 * sim.Microsecond))), r.Float64() < 0.05
			}
		}
		impair(p.cEnv)
		impair(p.sEnv)
		drop := p.cEnv.drop
		p.cEnv.drop = func(i int, pkt *packet.Packet) bool {
			switch {
			case pkt.Bounds != nil:
				many++
				if seqLEQ((*pkt.Bounds)[0].EndSeq, p.server.readSeq) {
					stale++
				}
			case pkt.Msg.Kind != 0:
				one++
				if seqLEQ(pkt.TCP.EndSeq, p.server.readSeq) {
					stale++
				}
			case pkt.PayloadBytes > 0:
				bare++
			}
			return drop(i, pkt)
		}

		ends := make([]int, 200) // each message's end offset in the stream
		for i, off := 0, 0; i < len(ends); i++ {
			off += 1 + r.Intn(3*cfg.MSS)
			ends[i] = off
		}
		sizeOf := func(i int) int {
			if i == 0 {
				return ends[0]
			}
			return ends[i] - ends[i-1]
		}
		msgOf := func(i int) packet.Msg { return packet.Msg{Kind: 1, A: uint64(i), B: uint64(sizeOf(i))} }
		read, next := 0, 0
		p.server.OnReadable = func() {
			for p.server.Readable() > 0 {
				n, msgs := p.server.Read(1 + r.Intn(2*cfg.MSS))
				lo := read
				read += n
				for _, m := range msgs {
					i := int(m.A)
					if i != next {
						t.Fatalf("seed %d: message %d surfaced, want %d", seed, i, next)
					}
					if m != msgOf(i) {
						t.Fatalf("seed %d: message %d surfaced as %+v, want %+v", seed, i, m, msgOf(i))
					}
					if ends[i] <= lo || ends[i] > read {
						t.Fatalf("seed %d: message %d ends at byte %d, surfaced reading (%d, %d]", seed, i, ends[i], lo, read)
					}
					next++
				}
			}
		}
		p.client.OnConnected = func() {
			msg, sentInMsg := 0, 0
			var push func()
			push = func() {
				for msg < len(ends) {
					size, m := sizeOf(msg), msgOf(msg)
					n := p.client.Send(size-sentInMsg, &m)
					if n == 0 {
						p.client.OnWritable = push
						return
					}
					if sentInMsg += n; sentInMsg == size {
						msg, sentInMsg = msg+1, 0
					}
				}
				p.client.OnWritable = nil
			}
			push()
		}
		p.connect(t)
		run(p, 60*sim.Second)
		if next != len(ends) || read != ends[len(ends)-1] {
			t.Fatalf("seed %d: %d/%d messages, %d/%d bytes", seed, next, len(ends), read, ends[len(ends)-1])
		}
	}
	if bare == 0 || one == 0 || many == 0 || stale == 0 {
		t.Fatalf("segments by boundaries: %d none, %d one, %d several, %d stale; want each > 0", bare, one, many, stale)
	}
	t.Logf("segments by boundaries: %d none, %d one, %d several, %d stale", bare, one, many, stale)
}
