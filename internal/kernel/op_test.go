package kernel

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// inject queues a datagram on machine m's socket at port, as the softirq path
// would (a raw single-packet datagram; deliverUDP does not keep pkt).
func inject(m *Machine, port packet.Port, msg packet.Msg) {
	m.deliverUDP(&packet.Packet{
		Src:          packet.Addr{Node: 9, Port: 9},
		Dst:          packet.Addr{Node: m.node, Port: port},
		Proto:        packet.ProtoUDP,
		PayloadBytes: 32,
		Msg:          msg,
	})
}

// spuriously wakes th three times, 10 µs apart, from event context: wakeups
// that find nothing, as a sibling draining the socket first produces.
func spuriously(r *rig, th *Thread) {
	for i := 1; i <= 3; i++ {
		r.eng.After(sim.Duration(i)*10*sim.Microsecond, func() { th.m.wake(th) })
	}
}

// vals packs a call's return values.
func vals(v ...any) []any { return v }

// tcpMsg is the message the TCP rows send.
var tcpMsg = packet.Msg{Kind: 1, A: 7}

// cookie is the epoll rows' registration cookie.
const cookie = 0xc00c1e

// A step is one call as both conventions make it: do makes it on c.th, last,
// and returns what the call returned (in a program thread: zero values at
// once); got reads the same values from the Result the next Next is handed.
type step struct {
	do  func(c *caller) []any
	got func(r *Result) []any
}

// The Result views of the call shapes.
func none(*Result) []any          { return nil }
func errOnly(r *Result) []any     { return vals(r.Err()) }
func events(r *Result) []any      { return vals(r.Events) }
func udpGot(r *Result) []any      { return vals(r.From, r.N, r.Msg(), r.Err()) }
func tcpGot(r *Result) []any      { return vals(r.N, r.Msgs(), r.Err()) }
func tcpSock(r *Result) []any     { return vals(r.TCP, r.Err()) }
func udpSockGot(r *Result) []any  { return vals(r.UDP, r.Err()) }
func listenerGot(r *Result) []any { return vals(r.Listener, r.Err()) }

// caller is the calling thread of a row, with the objects its calls returned.
type caller struct {
	r   *rig
	th  *Thread
	at  sim.Time // when the last call returned
	udp *UDPSocket
	ep  *Epoll
	lis *TCPListener
	tcp *TCPSocket
}

// keep remembers the objects a call returned.
func (c *caller) keep(vs []any) {
	for _, v := range vs {
		switch o := v.(type) {
		case *UDPSocket:
			c.udp = o
		case *Epoll:
			c.ep = o
		case *TCPListener:
			c.lis = o
		case *TCPSocket:
			c.tcp = o
		}
	}
}

// show renders call results for a trace: objects by type, events by cookie.
func show(vs []any) string {
	var b strings.Builder
	for _, v := range vs {
		switch o := v.(type) {
		case error:
			fmt.Fprintf(&b, "%q ", o.Error())
		case []EpollEvent:
			fmt.Fprintf(&b, "%d events:", len(o))
			for _, ev := range o {
				fmt.Fprintf(&b, " (%d %v)", ev.Events, ev.Data)
			}
			b.WriteString(" ")
		case *UDPSocket, *Epoll, *TCPListener, *TCPSocket:
			if reflect.ValueOf(o).IsNil() {
				b.WriteString("nil ")
			} else {
				fmt.Fprintf(&b, "%T ", o)
			}
		default:
			fmt.Fprintf(&b, "%v ", o)
		}
	}
	return b.String()
}

// script runs a row's steps as a Program: step k is made in the Next that is
// handed step k-1's results.
type script struct {
	t     *testing.T
	c     *caller
	steps []step
	pc    int
	trace []string
	last  []any
}

func (s *script) Next(th *Thread, res *Result) bool {
	if s.pc > 0 {
		s.last = s.steps[s.pc-1].got(res)
		s.c.keep(s.last)
		s.c.at = th.Now()
		s.trace = append(s.trace, fmt.Sprintf("%d %s", th.Now(), show(s.last)))
	}
	if !reflect.ValueOf(th.op).IsZero() {
		s.t.Errorf("finished call left its record behind: %+v", th.op)
	}
	if s.pc == len(s.steps) {
		return false
	}
	for _, v := range s.steps[s.pc].do(s.c) {
		if v != nil && !reflect.ValueOf(v).IsZero() {
			s.t.Errorf("step %d: a program's call returned %v at once", s.pc, v)
		}
	}
	s.pc++
	return true
}

// opRow is one TestOneResumePerCall row: untimed set-up calls, then the call
// under test.
type opRow struct {
	name    string
	peer    func(r *rig) // machine b's side, if any
	steps   []step
	wantErr error                                     // of the last call
	check   func(t *testing.T, c *caller, last []any) // of the Spawn run's last results
}

// opRows covers every call × immediate / block-then-data / timeout / closed /
// three spurious wakes.
func opRows(t *testing.T) []opRow {
	const port = 7000
	server := packet.Addr{Node: 1, Port: 80}
	after := 50 * sim.Microsecond // when the awaited event happens

	// listen runs a server on machine b: it accepts one connection and hands
	// it to serve.
	listen := func(serve func(th *Thread, s *TCPSocket)) func(*rig) {
		return func(r *rig) {
			r.b.Spawn("server", func(th *Thread) {
				lis, err := th.Listen(server.Port, 8)
				if err != nil {
					t.Error(err)
					return
				}
				s, err := lis.Accept(th, true)
				if err != nil {
					t.Error(err)
					return
				}
				serve(th, s)
			})
		}
	}
	// closer closes what close closes from a second thread on machine a.
	closer := func(r *rig, close func(th *Thread)) {
		r.a.Spawn("closer", func(th *Thread) {
			th.Sleep(after)
			close(th)
		})
	}
	udpSock := step{func(c *caller) []any { return vals(c.th.UDPSocket(port)) }, udpSockGot}
	epollOn := []step{udpSock,
		{func(c *caller) []any { return vals(c.th.EpollCreate()) }, func(r *Result) []any { return vals(r.Epoll) }},
		{func(c *caller) []any { c.ep.Add(c.th, c.udp, EpollIn, cookie); return nil }, none}}
	then := func(first []step, last ...step) []step { return append(slices.Clip(first), last...) }
	listener := step{func(c *caller) []any { return vals(c.th.Listen(80, 8)) }, listenerGot}
	connect := step{func(c *caller) []any { return vals(c.th.Connect(server)) }, tcpSock}
	compute := func(instr int64, setup func(c *caller)) step {
		return step{func(c *caller) []any {
			if setup != nil {
				setup(c)
			}
			c.th.Compute(instr)
			return nil
		}, none}
	}
	recvFrom := func(setup func(c *caller)) step {
		return step{func(c *caller) []any {
			setup(c)
			return vals(c.udp.RecvFrom(c.th))
		}, udpGot}
	}
	wait := func(timeout sim.Duration, setup func(c *caller)) step {
		return step{func(c *caller) []any {
			setup(c)
			return vals(c.ep.Wait(c.th, 8, timeout))
		}, events}
	}
	oneEvent := func(t *testing.T, c *caller, last []any) {
		if evs := last[0].([]EpollEvent); len(evs) != 1 || evs[0].Data != cookie {
			t.Errorf("events = %v", evs)
		}
	}
	nop := func(*caller) {}
	return []opRow{
		{name: "Sleep", steps: []step{{func(c *caller) []any { c.th.Sleep(after); return nil }, none}}},
		{name: "Sleep(0)", steps: []step{{func(c *caller) []any { c.th.Sleep(0); return nil }, none}}},
		{name: "Compute", steps: []step{compute(1000, nil)}},
		{name: "Yield/contended", steps: []step{
			compute(1000, func(c *caller) { c.r.a.Spawn("hog", func(h *Thread) { h.Compute(1_000_000) }) }), // let the hog reach the runqueue
			{func(c *caller) []any { c.th.Yield(); return nil }, none}}},
		{name: "Yield/alone", steps: []step{{func(c *caller) []any { c.th.Yield(); return nil }, none}}},

		{name: "UDPSocket", steps: []step{udpSock}},
		{name: "UDPSocket/port in use", wantErr: ErrPortInUse, steps: []step{udpSock, udpSock}},
		{name: "UDP Close", steps: []step{udpSock, {func(c *caller) []any { c.udp.Close(c.th); return nil }, none}}},
		{name: "SendTo/three fragments", steps: []step{udpSock,
			{func(c *caller) []any { return vals(c.udp.SendTo(c.th, packet.Addr{Node: 1, Port: 9}, 3000, msgOf(3))) }, errOnly}}},
		{name: "RecvFrom/immediate", steps: []step{udpSock, recvFrom(func(c *caller) { inject(c.r.a, port, msgOf(1)) })}},
		{name: "RecvFrom/block-then-data", steps: []step{udpSock, recvFrom(func(c *caller) {
			c.r.eng.After(after, func() { inject(c.r.a, port, msgOf(1)) })
		})}},
		{name: "RecvFrom/three spurious wakes", steps: []step{udpSock, recvFrom(func(c *caller) {
			spuriously(c.r, c.th)
			c.r.eng.After(after, func() { inject(c.r.a, port, msgOf(1)) })
		})}},
		{name: "RecvFrom/closed", wantErr: ErrClosed, steps: []step{udpSock, recvFrom(func(c *caller) {
			s := c.udp
			closer(c.r, func(ct *Thread) { s.Close(ct) })
		})}},
		{name: "RecvFromTimeout/data in time", steps: []step{udpSock, {func(c *caller) []any {
			c.r.eng.After(after, func() { inject(c.r.a, port, msgOf(1)) })
			return vals(c.udp.RecvFromTimeout(c.th, sim.Millisecond))
		}, udpGot}}},
		{name: "RecvFromTimeout/timeout", wantErr: ErrWouldBlock, steps: []step{udpSock, {func(c *caller) []any {
			spuriously(c.r, c.th)
			return vals(c.udp.RecvFromTimeout(c.th, sim.Millisecond))
		}, udpGot}}},
		{name: "UDP TryRecv/data", steps: []step{udpSock, {func(c *caller) []any {
			inject(c.r.a, port, msgOf(1))
			return vals(c.udp.TryRecv(c.th))
		}, udpGot}}},
		{name: "UDP TryRecv/empty", wantErr: ErrWouldBlock, steps: []step{udpSock,
			{func(c *caller) []any { return vals(c.udp.TryRecv(c.th)) }, udpGot}}},

		{name: "Epoll.Del", steps: then(epollOn, step{func(c *caller) []any { c.ep.Del(c.th, c.udp); return nil }, none})},
		{name: "Epoll.Wait/immediate", check: oneEvent, steps: then(epollOn, wait(WaitForever, func(c *caller) { inject(c.r.a, port, msgOf(1)) }))},
		{name: "Epoll.Wait/block-then-ready", check: oneEvent, steps: then(epollOn, wait(WaitForever, func(c *caller) {
			c.r.eng.After(after, func() { inject(c.r.a, port, msgOf(1)) })
		}))},
		{name: "Epoll.Wait/three spurious wakes", steps: then(epollOn, wait(sim.Millisecond, func(c *caller) {
			spuriously(c.r, c.th)
			c.r.eng.After(after, func() { inject(c.r.a, port, msgOf(1)) })
		})), check: func(t *testing.T, c *caller, last []any) {
			oneEvent(t, c, last)
			if c.at > sim.Time(500*sim.Microsecond) {
				t.Errorf("returned at %v", c.at)
			}
		}},
		{name: "Epoll.Wait/timeout", steps: then(epollOn, wait(sim.Millisecond, nop)), check: func(t *testing.T, c *caller, last []any) {
			if evs := last[0].([]EpollEvent); evs != nil || c.at < sim.Time(sim.Millisecond) {
				t.Errorf("events = %v at %v", evs, c.at)
			}
		}},
		{name: "Epoll.Wait/poll", steps: then(epollOn, wait(0, nop))},
		{name: "Epoll.Wait/kicked", steps: then(epollOn, wait(WaitForever, func(c *caller) { c.r.eng.After(after, c.ep.Kick) }))},

		{name: "Barrier.Wait/first and last arrival", steps: []step{{func(c *caller) []any {
			b := NewBarrier(c.r.a, 2)
			c.r.a.Spawn("late", func(lt *Thread) {
				lt.Sleep(after)
				before := lt.resumes
				b.Wait(lt)
				if n := lt.resumes - before; n != 1 {
					t.Errorf("last arrival resumed %d times", n)
				}
			})
			b.Wait(c.th)
			return nil
		}, none}, {func(c *caller) []any { c.th.Sleep(after); return nil }, none}}}, // let the late arrival return too

		{name: "Connect", peer: listen(func(*Thread, *TCPSocket) {}), steps: []step{connect}},
		{name: "Connect/refused", wantErr: ErrConnRefused, steps: []step{connect}, check: func(t *testing.T, c *caller, last []any) {
			if s := last[0].(*TCPSocket); s != nil {
				t.Errorf("refused connect returned socket %v", s)
			}
		}},
		{name: "TCP Send/fits the buffer", peer: listen(func(*Thread, *TCPSocket) {}), steps: []step{connect,
			{func(c *caller) []any { return vals(c.tcp.Send(c.th, 1000, tcpMsg)) }, errOnly}}},
		{name: "TCP Send/blocks on the buffer", peer: listen(func(st *Thread, s *TCPSocket) {
			for {
				if n, _, err := s.Recv(st, 1<<20); n == 0 || err != nil {
					return
				}
			}
		}), steps: []step{connect, {func(c *caller) []any { return vals(c.tcp.Send(c.th, 4*c.r.a.cfg.TCP.SndBuf, tcpMsg)) }, errOnly}}},
		{name: "TCP Recv/block-then-data", peer: listen(func(st *Thread, s *TCPSocket) {
			st.Sleep(after)
			_ = s.Send(st, 1000, tcpMsg)
		}), steps: []step{connect, {func(c *caller) []any {
			spuriously(c.r, c.th)
			return vals(c.tcp.Recv(c.th, 1<<20))
		}, tcpGot}}, check: func(t *testing.T, c *caller, last []any) {
			if msgs := last[1].([]packet.Msg); len(msgs) != 1 || msgs[0] != tcpMsg {
				t.Errorf("messages = %v", msgs)
			}
		}},
		{name: "TCP Recv/EOF", peer: listen(func(st *Thread, s *TCPSocket) {
			st.Sleep(after)
			s.Close(st)
		}), steps: []step{connect, {func(c *caller) []any { return vals(c.tcp.Recv(c.th, 1<<20)) }, tcpGot}},
			check: func(t *testing.T, c *caller, last []any) {
				if got := last[0].(int); got != 0 {
					t.Errorf("EOF read %d bytes", got)
				}
			}},
		{name: "TCP TryRecv/empty", wantErr: ErrWouldBlock, peer: listen(func(*Thread, *TCPSocket) {}), steps: []step{connect,
			{func(c *caller) []any { return vals(c.tcp.TryRecv(c.th, 1<<20)) }, tcpGot}}},
		{name: "TCP Close", peer: listen(func(*Thread, *TCPSocket) {}), steps: []step{connect,
			{func(c *caller) []any { c.tcp.Close(c.th); return nil }, none}}},
		{name: "TCP Abort", peer: listen(func(*Thread, *TCPSocket) {}), steps: []step{connect,
			{func(c *caller) []any { c.tcp.Abort(c.th); return nil }, none}}},
		{name: "Listen", steps: []step{listener}},
		{name: "Listener Close", steps: []step{listener, {func(c *caller) []any { c.lis.Close(c.th); return nil }, none}}},
		{name: "Accept/block-then-connection", peer: func(r *rig) {
			r.b.Spawn("client", func(ct *Thread) {
				ct.Sleep(after)
				_, _ = ct.Connect(packet.Addr{Node: 0, Port: 80})
			})
		}, steps: []step{listener, {func(c *caller) []any {
			spuriously(c.r, c.th)
			return vals(c.lis.Accept(c.th, true))
		}, tcpSock}}},
		{name: "Accept/accept+fcntl is two syscalls", peer: func(r *rig) {
			r.b.Spawn("client", func(ct *Thread) { _, _ = ct.Connect(packet.Addr{Node: 0, Port: 80}) })
		}, steps: []step{listener, {func(c *caller) []any {
			before := c.r.a.Stats.Syscalls
			s, err := c.lis.Accept(c.th, false)
			if n := c.r.a.Stats.Syscalls - before; s != nil && n != 2 {
				t.Errorf("accept took %d syscalls, want 2", n)
			}
			return vals(s, err)
		}, tcpSock}}},
		{name: "Accept/closed", wantErr: ErrClosed, steps: []step{listener, {func(c *caller) []any {
			lis := c.lis
			closer(c.r, func(ct *Thread) { lis.Close(ct) })
			return vals(c.lis.Accept(c.th, true))
		}, tcpSock}}},
		{name: "TryAccept/empty", wantErr: ErrWouldBlock, steps: []step{listener,
			{func(c *caller) []any { return vals(c.lis.TryAccept(c.th, true)) }, tcpSock}}},
	}
}

// runRow runs a row's caller on machine a, as a Spawn function or as a
// Program, and returns its (instant, result) trace and the machines' totals.
func runRow(t *testing.T, row opRow, asProgram bool) (trace []string, last []any) {
	r := newRig(t, DefaultConfig())
	if row.peer != nil {
		row.peer(r)
	}
	c := &caller{r: r}
	s := &script{t: t, c: c, steps: row.steps}
	if asProgram {
		c.th = r.a.Start("caller", s)
	} else {
		c.th = r.a.Spawn("caller", func(th *Thread) {
			for i, st := range row.steps {
				before := th.resumes
				last = st.do(c)
				c.keep(last)
				c.at = th.Now()
				trace = append(trace, fmt.Sprintf("%d %s", th.Now(), show(last)))
				if n := th.resumes - before; n != 1 {
					t.Errorf("step %d: coroutine resumed %d times, want 1", i, n)
				}
				if !reflect.ValueOf(th.op).IsZero() {
					t.Errorf("finished call left its record behind: %+v", th.op)
				}
			}
		})
	}
	r.run(sim.Second)
	if asProgram {
		trace, last = s.trace, s.last
		if c.th.resumes != 0 {
			t.Errorf("a program thread resumed a coroutine %d times", c.th.resumes)
		}
	}
	if row.check != nil && !asProgram && len(trace) == len(row.steps) {
		row.check(t, c, last)
	}
	for _, m := range []*Machine{r.a, r.b} {
		trace = append(trace, fmt.Sprintf("n%d busy=%d ctx=%d sys=%d", m.node, m.Util.Busy, m.Stats.CtxSwitches, m.Stats.Syscalls))
	}
	return trace, last
}

// TestOneResumePerCall: whatever a call does inside — find its data at once,
// block and be woken, absorb wakeups that find nothing, time out, or find its
// socket closed — the kernel half runs in engine context and the calling
// coroutine is resumed exactly once, when the call has its result. Each row
// also runs as a Program (the differential test): its calls return zero values
// at once, and it must see the same results at the same instants, with the
// same Syscalls, CtxSwitches and Util.Busy, as the Spawn reference.
func TestOneResumePerCall(t *testing.T) {
	for _, row := range opRows(t) {
		t.Run(row.name, func(t *testing.T) {
			ref, last := runRow(t, row, false)
			if len(ref) != len(row.steps)+2 {
				t.Fatalf("the calls never all returned: trace %q", ref)
			}
			var err error
			if len(last) > 0 {
				err, _ = last[len(last)-1].(error)
			}
			if !errors.Is(err, row.wantErr) {
				t.Fatalf("error = %v, want %v", err, row.wantErr)
			}
			prog, _ := runRow(t, row, true)
			if !slices.Equal(prog, ref) {
				t.Fatalf("as a Program:\n got  %q\n want %q", prog, ref)
			}
		})
	}
}

// twoCalls is a program that breaks the one-call rule.
type twoCalls struct{}

func (twoCalls) Next(t *Thread, _ *Result) bool {
	t.Sleep(sim.Microsecond)
	t.Compute(1000)
	return true
}

// TestTwoCallsInOneNextPanics: a second call would silently replace the first
// (and change the chunk boundaries every event count depends on).
func TestTwoCallsInOneNextPanics(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.a.Start("greedy", twoCalls{})
	defer func() {
		if got := recover(); got == nil || !strings.Contains(fmt.Sprint(got), "second call in one Next") {
			t.Fatalf("recovered %#v, want the one-call panic", got)
		}
	}()
	r.run(sim.Second)
	t.Fatal("run returned: two calls in one Next went through")
}

// TestStaleTimeoutRecordReblocks: RecvFromTimeout's wake-if-still-blocked
// record is not cancelled when the datagram arrives in time. When it fires it
// finds the thread blocked in a later Epoll.Wait; the kernel half charges the
// wakeup, finds nothing ready and blocks again, and the app never hears of it.
func TestStaleTimeoutRecordReblocks(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var th *Thread
	var inWait uint64 // th.resumes when it entered Wait
	var busyInWait sim.Duration
	returned := false
	th = r.a.Spawn("caller", func(th *Thread) {
		s, _ := th.UDPSocket(7000)
		ep := th.EpollCreate()
		ep.Add(th, s, EpollIn, 0)
		inject(r.a, 7000, msgOf(1))
		if _, _, _, err := s.RecvFromTimeout(th, sim.Millisecond); err != nil {
			t.Error(err)
		}
		inWait = th.resumes
		r.eng.After(500*sim.Microsecond, func() { busyInWait = r.a.Util.Busy }) // blocked by then
		ep.Wait(th, 8, WaitForever)
		returned = true
	})
	r.run(10 * sim.Millisecond)
	wakeup := r.a.instrTime(r.a.cfg.Profile.WakeupInstr)
	switch {
	case returned:
		t.Fatal("the stale record reached the app: Wait returned")
	case th.state != threadBlocked:
		t.Fatalf("thread state %d after the stale wakeup, want blocked", th.state)
	case th.resumes != inWait:
		t.Fatalf("coroutine resumed %d times inside Wait", th.resumes-inWait)
	case r.a.Util.Busy-busyInWait != wakeup:
		t.Fatalf("stale wakeup charged %v, want the wakeup cost %v", r.a.Util.Busy-busyInWait, wakeup)
	}
}

// TestEpollResultsPerThread: two threads waiting on one epoll each get their
// own result slice. (With the buffer on the Epoll, the second thread's
// harvest overwrote what the first had been handed.)
func TestEpollResultsPerThread(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var ep *Epoll
	got := make([][]EpollEvent, 2)
	seen := make([]uint64, 2)
	r.a.Spawn("first", func(th *Thread) {
		s1, _ := th.UDPSocket(7001)
		s2, _ := th.UDPSocket(7002)
		ep = th.EpollCreate()
		ep.Add(th, s1, EpollIn, 1)
		ep.Add(th, s2, EpollIn, 2)
		r.a.Spawn("second", func(th *Thread) {
			got[1] = ep.Wait(th, 1, WaitForever)
			seen[1] = got[1][0].Data
		})
		r.eng.After(100*sim.Microsecond, func() {
			inject(r.a, 7001, msgOf(1))
			inject(r.a, 7002, msgOf(2))
		})
		got[0] = ep.Wait(th, 1, WaitForever)
		th.Compute(400_000) // hold the result across the sibling's harvest
		seen[0] = got[0][0].Data
	})
	r.run(10 * sim.Millisecond)
	if len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatalf("results %v and %v, want one event each", got[0], got[1])
	}
	if &got[0][0] == &got[1][0] {
		t.Fatal("both waiters were handed the same buffer")
	}
	if seen[0] == seen[1] {
		t.Fatalf("waiters saw %v, want one socket each", seen)
	}
}

// TestTeardownMidCall: Shutdown with threads parked at every point inside a
// call — blocked, asleep, mid entry charge, mid completion charge — and Exit
// right after a call unwind cleanly and leave no call record (its sockets,
// payloads, result buffer) reachable from the dead threads.
func TestTeardownMidCall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UDPRcvBuf = 1 << 40
	r := newRig(t, cfg)
	r.a.Spawn("blocked in recv", func(th *Thread) {
		s, _ := th.UDPSocket(7000)
		_, _, _, _ = s.RecvFromTimeout(th, sim.Second)
	})
	r.a.Spawn("blocked in epoll", func(th *Thread) {
		s, _ := th.UDPSocket(7001)
		ep := th.EpollCreate()
		ep.Add(th, s, EpollIn, 0)
		inject(r.a, 7001, msgOf(1))
		ep.Wait(th, 8, WaitForever) // fills the thread's result buffer
		_, _, _, _ = s.TryRecv(th)
		ep.Wait(th, 8, WaitForever)
	})
	r.a.Spawn("asleep", func(th *Thread) { th.Sleep(sim.Second) })
	r.a.Spawn("exits after a call", func(th *Thread) {
		th.Sleep(sim.Microsecond)
		th.Exit()
	})
	r.a.Spawn("blocked in connect", func(th *Thread) { _, _ = th.Connect(packet.Addr{Node: 1, Port: 81}) })
	r.a.Spawn("mid completion charge", func(th *Thread) {
		s, _ := th.UDPSocket(7002)
		th.Sleep(sim.Millisecond) // the others are parked by now
		r.a.deliverUDP(&packet.Packet{Dst: packet.Addr{Port: 7002}, Proto: packet.ProtoUDP, PayloadBytes: 1 << 36})
		_, _, _, _ = s.RecvFrom(th) // the copy outlasts the run
	})
	r.b.Spawn("mid entry charge", func(th *Thread) {
		r.b.SetSlowdown(1e9) // so does every charge on b from here on
		th.Sleep(sim.Second)
	})
	r.run(10 * sim.Millisecond)

	var phases []uint8
	for _, th := range slices.Concat(r.a.threads, r.b.threads) {
		if th.name != "exits after a call" && th.op.kind == opNone {
			t.Errorf("%v is not inside a call", th)
		}
		phases = append(phases, th.op.phase)
	}
	// opArm and opDone with the charge before them still running.
	if want := []uint8{opPoll, opPoll, opPoll, opEnter, opPoll, opDone, opArm}; !slices.Equal(phases, want) {
		t.Errorf("threads stopped in phases %v, want %v", phases, want)
	}
	r.a.Shutdown()
	r.b.Shutdown()
	for _, th := range slices.Concat(r.a.threads, r.b.threads) {
		if th.state != threadDead || !reflect.ValueOf(th.op).IsZero() || th.evbuf != nil {
			t.Errorf("%v after Shutdown: state %d, record %+v, buffer %v", th, th.state, th.op, th.evbuf)
		}
	}
}

// TestAppPanicAfterCall: a panic in app code that follows a completed call —
// so the coroutine was resumed from the call's kernel half, not from a plain
// CPU grant — still re-raises in RunUntil's caller.
func TestAppPanicAfterCall(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.a.Spawn("buggy", func(th *Thread) {
		s, _ := th.UDPSocket(7000)
		r.eng.After(50*sim.Microsecond, func() { inject(r.a, 7000, msgOf(1)) })
		_, _, _, _ = s.RecvFrom(th) // blocks, is woken, pays the copy, returns
		panic("app bug")
	})
	defer func() {
		if got := recover(); got != "app bug" {
			t.Fatalf("recovered %#v, want the app's panic", got)
		}
	}()
	r.run(sim.Second)
	t.Fatal("run returned: the panic was swallowed")
}

// handlerCapture is a HandlerRegistrar that keeps what it is given, so a
// test can wrap one of the package's handlers.
type handlerCapture map[sim.EvKind]sim.Handler

func (c handlerCapture) RegisterHandler(k sim.EvKind, h sim.Handler) { c[k] = h }

// TestReceiveTimeoutWakeInstants: one thread makes timed receives of two
// lengths, 100 ms and 10 ms, so its timeout records are armed both after and
// before the latest one still pending, and the stale ones fire while it
// computes and while it blocks in a later receive. Every record fires at the
// instant it fired when each was an event of its own, and wakes the thread
// exactly when it is blocked then.
func TestReceiveTimeoutWakeInstants(t *testing.T) {
	r := newRig(t, DefaultConfig())
	type firing struct {
		at    sim.Time
		woken bool
	}
	var fired []firing
	h := handlerCapture{}
	RegisterEventHandlers(h)
	r.eng.RegisterHandler(sim.EvThreadWakeBlocked, func(now sim.Time, ev sim.Event) {
		fired = append(fired, firing{now, ev.Tgt.(*Thread).state == threadBlocked})
		h[sim.EvThreadWakeBlocked](now, ev)
	})
	for _, at := range []sim.Duration{1, 2, 15, 150} {
		r.eng.At(sim.Time(at*sim.Millisecond), func() { inject(r.a, 6000, msgOf(int(at))) })
	}
	var errs []error
	r.a.Spawn("receiver", func(th *Thread) {
		s, _ := th.UDPSocket(6000)
		for _, d := range []sim.Duration{100, 100, 10, 10} {
			_, _, _, err := s.RecvFromTimeout(th, d*sim.Millisecond)
			errs = append(errs, err)
		}
		th.Compute(40_000_000) // 10 ms at 4 GHz, over the fourth record's instant
		s.RecvFrom(th)         // blocked when the first two fire
		_, _, _, err := s.RecvFromTimeout(th, 10*sim.Millisecond)
		errs = append(errs, err)
	})
	var lanes int
	r.eng.At(sim.Time(5*sim.Millisecond), func() { lanes = r.eng.QueueStats().Lanes })
	r.run(sim.Second)
	want := []firing{
		{12_002_039_750, true},  // the third receive times out
		{22_004_077_250, false}, // the fourth's, stale, while the thread computes
		{100_013_012_500, true}, // the first's, stale, in the blocking receive
		{101_002_039_750, true}, // the second's, likewise
		{160_002_039_750, true}, // the last receive times out
	}
	if !slices.Equal(fired, want) {
		t.Errorf("timeout records fired %v, want %v", fired, want)
	}
	if wantErrs := []error{nil, nil, ErrWouldBlock, nil, ErrWouldBlock}; !slices.Equal(errs, wantErrs) {
		t.Errorf("receives returned %v, want %v", errs, wantErrs)
	}
	if lanes != 1 {
		t.Errorf("at 5 ms %d records waited on the lane, want the second's", lanes)
	}
}
