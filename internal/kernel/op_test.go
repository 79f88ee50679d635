package kernel

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// resumesDuring counts how often the machine switched into th's coroutine
// while call ran on it.
func resumesDuring(th *Thread, call func()) uint64 {
	before := th.resumes
	call()
	return th.resumes - before
}

// inject queues a datagram on machine m's socket at port, as the softirq path
// would (a raw single-packet datagram; deliverUDP does not keep pkt).
func inject(m *Machine, port packet.Port, payload any) {
	m.deliverUDP(&packet.Packet{
		Src:          packet.Addr{Node: 9, Port: 9},
		Dst:          packet.Addr{Node: m.node, Port: port},
		Proto:        packet.ProtoUDP,
		PayloadBytes: 32,
		Payload:      payload,
	})
}

// spuriously wakes th three times, 10 µs apart, from event context: wakeups
// that find nothing, as a sibling draining the socket first produces.
func spuriously(r *rig, th *Thread) {
	for i := 1; i <= 3; i++ {
		r.eng.After(sim.Duration(i)*10*sim.Microsecond, func() { th.m.wake(th) })
	}
}

// TestOneResumePerCall: whatever a blocking call does inside — find its data
// at once, block and be woken, absorb wakeups that find nothing, time out, or
// find its socket closed — the kernel half runs in engine context and the
// calling coroutine is resumed exactly once, when the call has its result. A
// call that needs neither the CPU nor an event does not park at all.
func TestOneResumePerCall(t *testing.T) {
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
	udp := func(th *Thread) *UDPSocket {
		s, err := th.UDPSocket(port)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	epoll := func(th *Thread) (*Epoll, *UDPSocket) {
		s := udp(th)
		ep := th.EpollCreate()
		ep.Add(th, s, EpollIn, "cookie")
		return ep, s
	}
	// closer closes what close closes from a second thread on machine a.
	closer := func(r *rig, close func(th *Thread)) {
		r.a.Spawn("closer", func(th *Thread) {
			th.Sleep(after)
			close(th)
		})
	}

	cases := []struct {
		name string
		peer func(r *rig) // machine b's side, if any
		// call runs on a thread of machine a: untimed set-up, then the one
		// call under test inside resumesDuring. It returns the count and the
		// call's error.
		call    func(r *rig, th *Thread) (uint64, error)
		extra   int // resumes beyond the one a call makes; -1: it never parks
		wantErr error
	}{
		{name: "syscall", call: func(r *rig, th *Thread) (uint64, error) {
			return resumesDuring(th, func() { th.syscall(100) }), nil
		}},
		{name: "Sleep", call: func(r *rig, th *Thread) (uint64, error) {
			return resumesDuring(th, func() { th.Sleep(after) }), nil
		}},
		{name: "Sleep(0)", call: func(r *rig, th *Thread) (uint64, error) {
			return resumesDuring(th, func() { th.Sleep(0) }), nil
		}},
		{name: "Yield/contended", call: func(r *rig, th *Thread) (uint64, error) {
			r.a.Spawn("hog", func(h *Thread) { h.Compute(1_000_000) })
			th.Compute(1000) // let the hog reach the runqueue
			return resumesDuring(th, func() { th.Yield() }), nil
		}},
		{name: "Yield/alone", call: func(r *rig, th *Thread) (uint64, error) {
			return resumesDuring(th, func() { th.Yield() }), nil
		}},

		{name: "RecvFrom/immediate", call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			inject(r.a, port, "x")
			n = resumesDuring(th, func() { _, _, _, err = s.RecvFrom(th) })
			return
		}},
		{name: "RecvFrom/block-then-data", call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			r.eng.After(after, func() { inject(r.a, port, "x") })
			n = resumesDuring(th, func() { _, _, _, err = s.RecvFrom(th) })
			return
		}},
		{name: "RecvFrom/three spurious wakes", call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			spuriously(r, th)
			r.eng.After(after, func() { inject(r.a, port, "x") })
			n = resumesDuring(th, func() { _, _, _, err = s.RecvFrom(th) })
			return
		}},
		{name: "RecvFrom/closed", wantErr: ErrClosed, call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			closer(r, func(ct *Thread) { s.Close(ct) })
			n = resumesDuring(th, func() { _, _, _, err = s.RecvFrom(th) })
			return
		}},
		{name: "RecvFromTimeout/data in time", call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			r.eng.After(after, func() { inject(r.a, port, "x") })
			n = resumesDuring(th, func() { _, _, _, err = s.RecvFromTimeout(th, sim.Millisecond) })
			return
		}},
		{name: "RecvFromTimeout/timeout", wantErr: ErrWouldBlock, call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			spuriously(r, th)
			n = resumesDuring(th, func() { _, _, _, err = s.RecvFromTimeout(th, sim.Millisecond) })
			return
		}},
		{name: "UDP TryRecv/data", call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			inject(r.a, port, "x")
			n = resumesDuring(th, func() { _, _, _, err = s.TryRecv(th) })
			return
		}},
		{name: "UDP TryRecv/empty", wantErr: ErrWouldBlock, call: func(r *rig, th *Thread) (n uint64, err error) {
			s := udp(th)
			n = resumesDuring(th, func() { _, _, _, err = s.TryRecv(th) })
			return
		}},

		{name: "Epoll.Wait/immediate", call: func(r *rig, th *Thread) (uint64, error) {
			ep, _ := epoll(th)
			inject(r.a, port, "x")
			var evs []EpollEvent
			n := resumesDuring(th, func() { evs = ep.Wait(th, 8, WaitForever) })
			if len(evs) != 1 || evs[0].Data != "cookie" {
				t.Errorf("events = %v", evs)
			}
			return n, nil
		}},
		{name: "Epoll.Wait/block-then-ready", call: func(r *rig, th *Thread) (uint64, error) {
			ep, _ := epoll(th)
			r.eng.After(after, func() { inject(r.a, port, "x") })
			var evs []EpollEvent
			n := resumesDuring(th, func() { evs = ep.Wait(th, 8, WaitForever) })
			if len(evs) != 1 {
				t.Errorf("events = %v", evs)
			}
			return n, nil
		}},
		{name: "Epoll.Wait/three spurious wakes", call: func(r *rig, th *Thread) (uint64, error) {
			ep, _ := epoll(th)
			spuriously(r, th)
			r.eng.After(after, func() { inject(r.a, port, "x") })
			var evs []EpollEvent
			n := resumesDuring(th, func() { evs = ep.Wait(th, 8, sim.Millisecond) })
			if len(evs) != 1 || th.Now() > sim.Time(500*sim.Microsecond) {
				t.Errorf("events = %v at %v", evs, th.Now())
			}
			return n, nil
		}},
		{name: "Epoll.Wait/timeout", call: func(r *rig, th *Thread) (uint64, error) {
			ep, _ := epoll(th)
			var evs []EpollEvent
			n := resumesDuring(th, func() { evs = ep.Wait(th, 8, sim.Millisecond) })
			if evs != nil || th.Now() < sim.Time(sim.Millisecond) {
				t.Errorf("events = %v at %v", evs, th.Now())
			}
			return n, nil
		}},
		{name: "Epoll.Wait/poll", call: func(r *rig, th *Thread) (uint64, error) {
			ep, _ := epoll(th)
			return resumesDuring(th, func() { ep.Wait(th, 8, 0) }), nil
		}},
		{name: "Epoll.Wait/kicked", call: func(r *rig, th *Thread) (uint64, error) {
			ep, _ := epoll(th)
			r.eng.After(after, ep.Kick)
			return resumesDuring(th, func() { ep.Wait(th, 8, WaitForever) }), nil
		}},

		{name: "Cond.Wait", call: func(r *rig, th *Thread) (uint64, error) {
			c := NewCond(r.a)
			r.eng.After(after, func() { c.Signal(nil) })
			return resumesDuring(th, func() { c.Wait(th) }), nil
		}},
		{name: "Barrier.Wait/first and last arrival", call: func(r *rig, th *Thread) (uint64, error) {
			b := NewBarrier(r.a, 2)
			var last uint64
			r.a.Spawn("late", func(lt *Thread) {
				lt.Sleep(after)
				last = resumesDuring(lt, func() { b.Wait(lt) })
			})
			first := resumesDuring(th, func() { b.Wait(th) })
			th.Sleep(after) // let the late arrival return too
			if last != 1 {
				t.Errorf("last arrival resumed %d times", last)
			}
			return first, nil
		}},
		{name: "WaitGroup.Wait/blocks", call: func(r *rig, th *Thread) (uint64, error) {
			wg := NewWaitGroup(r.a)
			wg.Add(2)
			r.eng.After(after, wg.Done)
			r.eng.After(2*after, wg.Done)
			spuriously(r, th)
			return resumesDuring(th, func() { wg.Wait(th) }), nil
		}},
		{name: "WaitGroup.Wait/already zero", extra: -1, call: func(r *rig, th *Thread) (uint64, error) {
			wg := NewWaitGroup(r.a)
			return resumesDuring(th, func() { wg.Wait(th) }), nil
		}},

		{name: "Connect", peer: listen(func(*Thread, *TCPSocket) {}), call: func(r *rig, th *Thread) (n uint64, err error) {
			n = resumesDuring(th, func() { _, err = th.Connect(server) })
			return
		}},
		{name: "Connect/refused", wantErr: ErrConnRefused, call: func(r *rig, th *Thread) (n uint64, err error) {
			var s *TCPSocket
			n = resumesDuring(th, func() { s, err = th.Connect(server) })
			if s != nil {
				t.Errorf("refused connect returned socket %v", s)
			}
			return
		}},
		{name: "TCP Send/fits the buffer", peer: listen(func(*Thread, *TCPSocket) {}), call: func(r *rig, th *Thread) (n uint64, err error) {
			s, _ := th.Connect(server)
			n = resumesDuring(th, func() { err = s.Send(th, 1000, "m") })
			return
		}},
		{name: "TCP Send/blocks on the buffer", peer: listen(func(st *Thread, s *TCPSocket) {
			for {
				if n, _, err := s.Recv(st, 1<<20); n == 0 || err != nil {
					return
				}
			}
		}), call: func(r *rig, th *Thread) (n uint64, err error) {
			s, _ := th.Connect(server)
			n = resumesDuring(th, func() { err = s.Send(th, 4*r.a.cfg.TCP.SndBuf, "m") })
			return
		}},
		{name: "TCP Recv/block-then-data", peer: listen(func(st *Thread, s *TCPSocket) {
			st.Sleep(after)
			_ = s.Send(st, 1000, "m")
		}), call: func(r *rig, th *Thread) (n uint64, err error) {
			s, _ := th.Connect(server)
			spuriously(r, th)
			var msgs []any
			n = resumesDuring(th, func() { _, msgs, err = s.Recv(th, 1<<20) })
			if len(msgs) != 1 || msgs[0] != "m" {
				t.Errorf("messages = %v", msgs)
			}
			return
		}},
		{name: "TCP Recv/EOF", peer: listen(func(st *Thread, s *TCPSocket) {
			st.Sleep(after)
			s.Close(st)
		}), call: func(r *rig, th *Thread) (n uint64, err error) {
			s, _ := th.Connect(server)
			got := -1
			n = resumesDuring(th, func() { got, _, err = s.Recv(th, 1<<20) })
			if got != 0 {
				t.Errorf("EOF read %d bytes", got)
			}
			return
		}},
		{name: "TCP TryRecv/empty", wantErr: ErrWouldBlock, peer: listen(func(*Thread, *TCPSocket) {}), call: func(r *rig, th *Thread) (n uint64, err error) {
			s, _ := th.Connect(server)
			n = resumesDuring(th, func() { _, _, err = s.TryRecv(th, 1<<20) })
			return
		}},
		{name: "Accept/block-then-connection", peer: func(r *rig) {
			r.b.Spawn("client", func(ct *Thread) {
				ct.Sleep(after)
				_, _ = ct.Connect(packet.Addr{Node: 0, Port: 80})
			})
		}, call: func(r *rig, th *Thread) (n uint64, err error) {
			lis, _ := th.Listen(80, 8)
			spuriously(r, th)
			n = resumesDuring(th, func() { _, err = lis.Accept(th, true) })
			return
		}},
		{name: "Accept/accept+fcntl is two syscalls", extra: 1, peer: func(r *rig) {
			r.b.Spawn("client", func(ct *Thread) { _, _ = ct.Connect(packet.Addr{Node: 0, Port: 80}) })
		}, call: func(r *rig, th *Thread) (n uint64, err error) {
			lis, _ := th.Listen(80, 8)
			n = resumesDuring(th, func() { _, err = lis.Accept(th, false) })
			return
		}},
		{name: "Accept/closed", wantErr: ErrClosed, call: func(r *rig, th *Thread) (n uint64, err error) {
			lis, _ := th.Listen(80, 8)
			closer(r, func(ct *Thread) { lis.Close(ct) })
			n = resumesDuring(th, func() { _, err = lis.Accept(th, true) })
			return
		}},
		{name: "TryAccept/empty", wantErr: ErrWouldBlock, call: func(r *rig, th *Thread) (n uint64, err error) {
			lis, _ := th.Listen(80, 8)
			n = resumesDuring(th, func() { _, err = lis.TryAccept(th, true) })
			return
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, DefaultConfig())
			if tc.peer != nil {
				tc.peer(r)
			}
			returned := false
			var resumes uint64
			var err error
			r.a.Spawn("caller", func(th *Thread) {
				resumes, err = tc.call(r, th)
				returned = true
				if !reflect.ValueOf(th.op).IsZero() {
					t.Errorf("finished call left its record behind: %+v", th.op)
				}
			})
			r.run(sim.Second)
			want := uint64(1 + tc.extra)
			switch {
			case !returned:
				t.Fatal("the call never returned")
			case !errors.Is(err, tc.wantErr):
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			case resumes != want:
				t.Fatalf("coroutine resumed %d times, want %d", resumes, want)
			}
		})
	}
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
		ep.Add(th, s, EpollIn, nil)
		inject(r.a, 7000, "early")
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
	seen := make([]any, 2)
	r.a.Spawn("first", func(th *Thread) {
		s1, _ := th.UDPSocket(7001)
		s2, _ := th.UDPSocket(7002)
		ep = th.EpollCreate()
		ep.Add(th, s1, EpollIn, "one")
		ep.Add(th, s2, EpollIn, "two")
		r.a.Spawn("second", func(th *Thread) {
			got[1] = ep.Wait(th, 1, WaitForever)
			seen[1] = got[1][0].Data
		})
		r.eng.After(100*sim.Microsecond, func() {
			inject(r.a, 7001, "a")
			inject(r.a, 7002, "b")
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
		ep.Add(th, s, EpollIn, nil)
		inject(r.a, 7001, "x")
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
		r.a.deliverUDP(&packet.Packet{Dst: packet.Addr{Port: 7002}, Proto: packet.ProtoUDP, PayloadBytes: 1 << 36, Payload: "huge"})
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
		r.eng.After(50*sim.Microsecond, func() { inject(r.a, 7000, "x") })
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
