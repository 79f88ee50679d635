package kernel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
	"diablo/internal/tcp"
)

// socketWakes blocks readers, writers and connectors on TCP sockets in
// interleaved order and logs every call's return (thread, what, instant), so
// the log is the order in which each socket woke its waiters. Both sockets
// connect while the listener's backlog is full: the SYN is dropped and
// retransmitted a second later, and the waiters join the connecting socket
// in that window through whole-record calls on it.
//
//   - S (port 80) takes connectors C1, C2, readers R1, R2 and a writer W. The
//     handshake wakes the connectors; the server's messages wake one reader
//     each; its reads free send space for W, which sends 150 kB at a time;
//     its reset wakes the readers, then W.
//   - S2 (port 81) takes C3, W2, R3, C4, R4 and is reset by a local Abort,
//     which must wake readers, then writers, then connectors.
func socketWakes(t *testing.T) string {
	r := newRig(t, DefaultConfig())
	var log strings.Builder
	tag := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrConnRefused):
			return "refused"
		case errors.Is(err, tcp.ErrReset):
			return "reset"
		}
		return err.Error()
	}
	note := func(th *Thread, what string, args ...any) {
		fmt.Fprintf(&log, "%s:%s@%d ", th.Name(), fmt.Sprintf(what, args...), th.Now())
	}
	srv80 := packet.Addr{Node: r.b.Node(), Port: 80}
	srv81 := packet.Addr{Node: r.b.Node(), Port: 81}
	connecting := func(remote packet.Addr) *TCPSocket {
		for _, s := range r.a.conns {
			if s.conn.Remote == remote && s.conn.State() == tcp.StateSynSent {
				return s
			}
		}
		panic(fmt.Sprintf("no connecting socket to %v", remote))
	}
	ms := func(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

	// The server: a full backlog on each port, opened by a filler connection
	// it accepts only at 500 ms. Then on S: three messages a millisecond
	// apart, a read of the first 200 kB W sends, and a reset.
	r.b.Spawn("srv", func(th *Thread) {
		l80, _ := th.Listen(80, 1)
		_, _ = th.Listen(81, 1)
		th.Sleep(ms(500) - sim.Duration(th.Now()))
		if _, err := l80.Accept(th, true); err != nil {
			t.Error(err)
			return
		}
		s, err := l80.Accept(th, true)
		if err != nil {
			t.Error(err)
			return
		}
		note(th, "accepted")
		for i := range 3 {
			th.Sleep(sim.Millisecond)
			_ = s.Send(th, 100, msgOf(i))
		}
		got := 0
		for got < 200_000+100 {
			n, _, err := s.Recv(th, 1<<20)
			if err != nil || n == 0 {
				break
			}
			got += n
		}
		note(th, "read%d", got)
		s.Abort(th)
	})

	r.a.Spawn("filler", func(th *Thread) {
		_, _ = th.Connect(srv80)
		_, _ = th.Connect(srv81)
	})
	at := func(name string, d sim.Duration, fn func(th *Thread)) {
		r.a.Spawn(name, func(th *Thread) {
			th.Sleep(d)
			fn(th)
		})
	}
	connect := func(remote packet.Addr) func(th *Thread) {
		return func(th *Thread) {
			s, err := th.Connect(remote)
			note(th, "connect=%s", tag(err))
			if s != nil && remote == srv80 {
				_ = s.Send(th, 100, msgOf(9)) // its ACK frees space for W
				note(th, "sent")
			}
		}
	}
	join := func(remote packet.Addr, kind opKind, n int) func(th *Thread) {
		return func(th *Thread) {
			s := connecting(remote)
			for {
				res := th.call(threadOp{kind: kind, tcp: s, n: n})
				note(th, "%d/%d/%s", res.N, len(res.Msgs()), tag(res.Err()))
				if kind == opConnect || res.Err() != nil || kind == opTCPRecv && res.N == 0 {
					return
				}
			}
		}
	}
	at("C1", ms(2), connect(srv80))
	at("R1", ms(3), join(srv80, opTCPRecv, 1<<20))
	at("C2", ms(4), join(srv80, opConnect, 0))
	at("W", ms(5), join(srv80, opTCPSend, 150_000))
	at("R2", ms(6), join(srv80, opTCPRecv, 1<<20))

	at("C3", ms(10), connect(srv81))
	at("W2", ms(11), join(srv81, opTCPSend, 1000))
	at("R3", ms(12), join(srv81, opTCPRecv, 1<<20))
	at("C4", ms(13), join(srv81, opConnect, 0))
	at("R4", ms(14), join(srv81, opTCPRecv, 1<<20))
	at("killer", ms(200), func(th *Thread) {
		s := connecting(srv81)
		s.Abort(th)
		note(th, "abort")
	})

	r.run(3 * sim.Second)
	return log.String()
}

// wakeOrderAtParent is socketWakes' log at the commit before a socket's
// readers, writers and connectors shared one wait queue (3f0dd99).
const wakeOrderAtParent = "killer:abort@200154925000 R3:0/0/reset@200159075000 R4:0/0/reset@200161575000 W2:0/0/reset@200164075000 " +
	"C3:connect=refused@200166575000 C4:0/0/refused@200169075000 C1:connect=ok@1002053119000 C1:sent@1002053594000 " +
	"C2:0/0/ok@1002057744000 srv:accepted@1002066022000 R1:100/1/ok@1003097903500 W:0/0/ok@1003266872000 " +
	"R2:100/1/ok@1004081853500 R1:100/1/ok@1005172653500 W:0/0/ok@1005818290000 srv:read202980@1006072912000 " +
	"R2:0/0/reset@1006100640000 R1:0/0/reset@1006103140000 W:0/0/reset@1006105640000 "

func TestTCPSocketWakeOrder(t *testing.T) {
	if got := socketWakes(t); got != wakeOrderAtParent {
		t.Fatalf("wake order moved:\n got %s\nwant %s", got, wakeOrderAtParent)
	}
}
