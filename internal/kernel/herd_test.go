package kernel

import (
	"fmt"
	"strings"
	"testing"

	"diablo/internal/packet"
	"diablo/internal/sim"
)

// herd runs the memcached UDP server shape that dominates the benchmark: four
// workers, each with its own epoll, all watching one UDP socket. Every
// datagram wakes all four; one of them drains it and the other three find
// nothing and block again. It returns the order in which workers got
// datagrams (with the instant each returned from TryRecv) and the machine's
// scheduler totals, using nothing but exported API and Stats — so the same
// text can be produced at any commit. With programs set the workers are
// herdWorker programs instead of Spawn functions.
func herd(t *testing.T, programs bool) string {
	r := newRig(t, DefaultConfig())
	var log strings.Builder
	r.b.Spawn("main", func(th *Thread) {
		sock, err := th.UDPSocket(7000)
		if err != nil {
			t.Error(err)
			return
		}
		for w := 0; w < 4; w++ {
			if programs {
				r.b.Start(fmt.Sprintf("w%d", w), &herdWorker{sock: sock, log: &log})
				continue
			}
			r.b.Spawn(fmt.Sprintf("w%d", w), func(wt *Thread) {
				ep := wt.EpollCreate()
				ep.Add(wt, sock, EpollIn, 0)
				for {
					for range ep.Wait(wt, 64, 100*sim.Millisecond) {
						for {
							_, _, msg, err := sock.TryRecv(wt)
							if err != nil {
								break
							}
							fmt.Fprintf(&log, "%s:%v@%d ", wt.Name(), msg.A, wt.Now())
							wt.Compute(8000)
							wt.Sleep(3 * sim.Microsecond) // lets a sibling take the next one
						}
					}
				}
			})
		}
	})
	r.a.Spawn("client", func(th *Thread) {
		sock, _ := th.UDPSocket(0)
		th.Sleep(sim.Millisecond)
		for i := 0; i < 12; i++ {
			_ = sock.SendTo(th, packet.Addr{Node: 1, Port: 7000}, 64, msgOf(i))
			if i%3 != 2 { // two back to back, then a gap
				continue
			}
			th.Sleep(40 * sim.Microsecond)
		}
	})
	r.run(250 * sim.Millisecond) // past two epoll timeouts: all four time out twice, empty-handed
	fmt.Fprintf(&log, "| busy=%d ctx=%d sys=%d irq=%d", r.b.Util.Busy, r.b.Stats.CtxSwitches, r.b.Stats.Syscalls, r.b.Stats.Interrupts)
	return log.String()
}

// herdAtParent is herd's output at the commit before blocking calls moved
// their kernel half into engine context (03a452e): the wake order, every
// instant, the CPU charged and the context-switch count must not move.
const herdAtParent = "w0:0@1028763500 w1:1@1034862000 w2:2@1040960500 w0:3@1077063500 w1:4@1083162000 w2:5@1089260500 " +
	"w0:6@1125363500 w1:7@1131462000 w2:8@1137560500 w0:9@1173663500 w1:10@1179762000 w2:11@1185860500 " +
	"| busy=288107000 ctx=53 sys=69 irq=4"

func TestThunderingHerdUnchanged(t *testing.T) {
	if got := herd(t, false); got != herdAtParent {
		t.Fatalf("herd run moved:\n got %s\nwant %s", got, herdAtParent)
	}
}

// TestThunderingHerdAsPrograms: the same workers written as programs give the
// same string.
func TestThunderingHerdAsPrograms(t *testing.T) {
	if got := herd(t, true); got != herdAtParent {
		t.Fatalf("herd run with program workers:\n got %s\nwant %s", got, herdAtParent)
	}
}

// herdWorker is herd's worker loop as a Program.
type herdWorker struct {
	sock  *UDPSocket
	log   *strings.Builder
	ep    *Epoll
	pc    int
	ready int // events of the last Wait not yet drained
}

func (w *herdWorker) Next(t *Thread, res *Result) bool {
	switch w.pc {
	case 0:
		t.EpollCreate()
	case 1:
		w.ep = res.Epoll
		w.ep.Add(t, w.sock, EpollIn, 0)
	case 2:
		w.ep.Wait(t, 64, 100*sim.Millisecond)
	case 3:
		w.ready, w.pc = len(res.Events), 4
		return true
	case 4: // drain the socket once per ready event
		if w.ready == 0 {
			w.pc = 2
			return true
		}
		w.sock.TryRecv(t)
	case 5:
		if res.Err() != nil {
			w.ready, w.pc = w.ready-1, 4
			return true
		}
		fmt.Fprintf(w.log, "%s:%v@%d ", t.Name(), res.Msg().A, t.Now())
		t.Compute(8000)
	case 6:
		t.Sleep(3 * sim.Microsecond) // lets a sibling take the next one
	case 7:
		w.sock.TryRecv(t)
		w.pc = 5
		return true
	}
	w.pc++
	return true
}
