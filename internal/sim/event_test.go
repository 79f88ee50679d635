package sim

import (
	"strings"
	"testing"
)

// tickSink records typed-event dispatches so tests can assert order and
// payload fidelity.
type tickSink struct {
	fired []Event
	times []Time
}

func (s *tickSink) handler(now Time, ev Event) {
	s.fired = append(s.fired, ev)
	s.times = append(s.times, now)
}

// TestTypedLaneDispatch pins the typed lane's basic contract: records round
// through the queue unchanged (kind, object, argument and both payload
// references), and the handler observes the scheduled fire time.
func TestTypedLaneDispatch(t *testing.T) {
	e := NewEngine()
	sink := &tickSink{}
	e.RegisterHandler(EvAppTick, sink.handler)
	ref := &struct{ n int }{n: 7}
	e.AtEvent(Time(3*Microsecond), Event{Kind: EvAppTick, Obj: 42, Arg: 99, Tgt: sink, Ref: ref})
	e.AfterEvent(Microsecond, Event{Kind: EvAppTick, Obj: 1})
	e.Run()
	if len(sink.fired) != 2 {
		t.Fatalf("dispatched %d events, want 2", len(sink.fired))
	}
	if sink.times[0] != Time(Microsecond) || sink.times[1] != Time(3*Microsecond) {
		t.Fatalf("fire times = %v", sink.times)
	}
	got := sink.fired[1]
	if got.Kind != EvAppTick || got.Obj != 42 || got.Arg != 99 || got.Tgt != sink || got.Ref != ref {
		t.Fatalf("payload mangled in transit: %+v", got)
	}
}

// TestLanesShareTotalOrder schedules closure and typed events at identical
// timestamps in an interleaved pattern: both lanes share one sequence
// counter, so dispatch must follow exact schedule order within a timestamp
// regardless of lane.
func TestLanesShareTotalOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.RegisterHandler(EvAppTick, func(_ Time, ev Event) { order = append(order, int(ev.Arg)) })
	at := 5 * Time(Microsecond)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			i := i
			e.At(at, func() { order = append(order, i) })
		} else {
			e.AtEvent(at, Event{Kind: EvAppTick, Arg: uint64(i)})
		}
	}
	e.Run()
	if len(order) != 40 {
		t.Fatalf("dispatched %d events, want 40", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatch %d = event %d: lanes broke schedule order (%v)", i, got, order)
		}
	}
}

// TestMixedLaneQueueVsReference re-runs the tiered-queue property test with
// the lane chosen at random per event: the typed lane must obey the same
// (time, schedule-seq) total order and cancellation semantics as closures.
func TestMixedLaneQueueVsReference(t *testing.T) {
	delays := []Duration{
		0, 0, Nanosecond, 40 * Nanosecond, 70 * Nanosecond,
		300 * Nanosecond, 3 * Microsecond, 17 * Microsecond,
		120 * Microsecond, 5 * Millisecond, 200 * Millisecond,
	}
	rng := NewRand(DeriveSeed(1, "mixed-lane-queue-vs-reference"))
	for iter := 0; iter < 20; iter++ {
		e := NewEngine()
		ref := &refQueue{}
		var got, want []refEvent
		nextTag := 0
		ids := map[int]EventID{}
		seqOf := map[int]uint64{}
		var seq uint64

		e.RegisterHandler(EvAppTick, func(now Time, ev Event) {
			tag := int(ev.Arg)
			got = append(got, refEvent{at: now, seq: seqOf[tag], tag: tag})
		})
		schedule := func(at Time) {
			tag := nextTag
			nextTag++
			seq++
			if rng.Intn(2) == 0 {
				ids[tag] = e.At(at, func() {
					got = append(got, refEvent{at: e.Now(), seq: seqOf[tag], tag: tag})
				})
			} else {
				ids[tag] = e.AtEvent(at, Event{Kind: EvAppTick, Arg: uint64(tag)})
			}
			seqOf[tag] = seq
			ref.schedule(at, seq, tag)
		}

		for i := 0; i < 50; i++ {
			schedule(Time(delays[rng.Intn(len(delays))]))
		}
		for ops := 0; ops < 3000; ops++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				wantEv, ok := ref.pop()
				if !ok {
					if e.Step() {
						t.Fatalf("iter %d: engine dispatched with empty reference", iter)
					}
					continue
				}
				if !e.Step() {
					t.Fatalf("iter %d: engine empty, reference has %d events", iter, len(ref.events)+1)
				}
				want = append(want, wantEv)
			case 6, 7, 8:
				schedule(e.Now().Add(delays[rng.Intn(len(delays))]))
			default:
				if nextTag == 0 {
					continue
				}
				tag := rng.Intn(nextTag)
				e.Cancel(ids[tag])
				ref.cancel(seqOf[tag])
			}
		}
		for {
			wantEv, ok := ref.pop()
			if !ok {
				break
			}
			want = append(want, wantEv)
			if !e.Step() {
				t.Fatalf("iter %d: engine drained before reference", iter)
			}
		}
		if e.Step() {
			t.Fatalf("iter %d: engine had events after reference drained", iter)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: dispatched %d events, reference %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: dispatch %d = %+v, reference %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// TestCancelTypedEventReleasesPayload mirrors the closure-lane slot test for
// the typed lane: cancelling drops the payload references at cancel time and
// the freed slot is reused under a fresh generation.
func TestCancelTypedEventReleasesPayload(t *testing.T) {
	e := NewEngine()
	e.RegisterHandler(EvAppTick, func(Time, Event) { t.Fatal("cancelled typed event fired") })
	ref := &struct{ x int }{}
	id := e.AfterEvent(Millisecond, Event{Kind: EvAppTick, Tgt: ref, Ref: ref})
	if got := e.q.handedOut(); got != 1 {
		t.Fatalf("slots handed out = %d, want 1", got)
	}
	e.Cancel(id)
	if s := e.q.rec(0); s.ev.Tgt != nil || s.ev.Ref != nil || s.live() {
		t.Fatalf("cancel left typed payload pinned in its slot: %+v", s.ev)
	}
	e.Run()
	// Slot reuse under a new generation; the stale ID must not touch it.
	id2 := e.AfterEvent(Microsecond, Event{Kind: EvAppTick, Tgt: ref})
	if e.q.handedOut() != 1 {
		t.Fatalf("slots grew to %d instead of reusing the freed slot", e.q.handedOut())
	}
	e.Cancel(id)
	if !e.q.rec(0).live() {
		t.Fatal("stale EventID cancelled the slot's new tenant")
	}
	e.Cancel(id2)
	if e.q.rec(0).live() {
		t.Fatal("fresh EventID failed to cancel the typed event")
	}
}

// TestDispatchUnregisteredKindPanics: scheduling a kind with no handler must
// fail loudly at dispatch, naming the kind.
func TestDispatchUnregisteredKindPanics(t *testing.T) {
	e := NewEngine()
	e.AtEvent(Time(Microsecond), Event{Kind: EvAppTick})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("dispatching an unregistered kind did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "EvAppTick") {
			t.Fatalf("panic does not name the kind: %v", r)
		}
	}()
	e.Run()
}

// TestScheduleInvalidKindPanics: the zero kind (reserved as the free-slot
// sentinel) and out-of-range kinds are rejected at schedule time.
func TestScheduleInvalidKindPanics(t *testing.T) {
	for _, kind := range []EvKind{0, numEvKinds, 0xFE} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AtEvent with kind %d did not panic", kind)
				}
			}()
			NewEngine().AtEvent(0, Event{Kind: kind})
		}()
	}
}

// TestRegisterHandlerContract pins the jump-table registration rules:
// last registration wins (so cascading package helpers may re-register a
// shared dependency), and nil handlers or invalid kinds are rejected.
func TestRegisterHandlerContract(t *testing.T) {
	e := NewEngine()
	var hit string
	e.RegisterHandler(EvAppTick, func(Time, Event) { hit = "first" })
	e.RegisterHandler(EvAppTick, func(Time, Event) { hit = "second" })
	e.AtEvent(0, Event{Kind: EvAppTick})
	e.Run()
	if hit != "second" {
		t.Fatalf("hit = %q: last registration must win", hit)
	}
	for name, reg := range map[string]func(){
		"nil handler":  func() { e.RegisterHandler(EvAppTick, nil) },
		"zero kind":    func() { e.RegisterHandler(0, func(Time, Event) {}) },
		"out of range": func() { e.RegisterHandler(numEvKinds, func(Time, Event) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegisterHandler with %s did not panic", name)
				}
			}()
			reg()
		}()
	}
}

// TestTypedLanePastAndHorizonPanics: the typed lane enforces the same
// causality and horizon rules as the closure lane.
func TestTypedLanePastAndHorizonPanics(t *testing.T) {
	e := NewEngine()
	e.RegisterHandler(EvAppTick, func(Time, Event) {})
	e.AtEvent(Time(Microsecond), Event{Kind: EvAppTick})
	e.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling a typed event in the past did not panic")
			}
		}()
		e.AtEvent(0, Event{Kind: EvAppTick})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling a typed event beyond the horizon did not panic")
			}
		}()
		e.AtEvent(Never, Event{Kind: EvAppTick})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative AfterEvent delay did not panic")
			}
		}()
		e.AfterEvent(-Nanosecond, Event{Kind: EvAppTick})
	}()
}

// TestEvKindString covers the debug names, including out-of-range values.
func TestEvKindString(t *testing.T) {
	cases := map[EvKind]string{
		EvPacketHop: "EvPacketHop",
		EvTimerTick: "EvTimerTick",
		EvAppTick:   "EvAppTick",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("EvKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := EvKind(0xFE).String(); !strings.Contains(got, "254") {
		t.Errorf("out-of-range kind String() = %q, want the numeric value", got)
	}
}

// rearmer is a Timer with two timers, each re-arming itself once fired.
type rearmer struct {
	e     *Engine
	fired [2]int
	last  Time
}

func (r *rearmer) Fire(now Time, which uint32) {
	r.fired[which]++
	r.last = now
	r.e.AtEvent(now.Add(Duration(which+1)*Microsecond), TimerEvent(r, which))
}

// TestTimerEventAllocatesNothing: a TimerEvent needs no registered handler,
// fires Fire with its timer number at its time, shares the schedule order of
// the other kinds, stays out of ForEachPending, and arming one allocates
// nothing.
func TestTimerEventAllocatesNothing(t *testing.T) {
	e := NewEngine()
	r := &rearmer{e: e}
	closureFirst := false
	e.At(Time(Microsecond), func() { closureFirst = r.fired[0] == 0 })
	e.AtEvent(Time(Microsecond), TimerEvent(r, 0))
	e.RunUntil(Time(Microsecond))
	if !closureFirst || r.fired != [2]int{1, 0} || r.last != Time(Microsecond) {
		t.Fatalf("fired %v at %v; the closure scheduled first ran first: %v", r.fired, r.last, closureFirst)
	}
	e.AtEvent(e.Now(), TimerEvent(r, 1))
	e.ForEachPending(func(ev Event) { t.Errorf("ForEachPending yielded %v", ev.Kind) })
	e.RunUntil(Time(100 * Microsecond)) // warm the queue to its working size
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(10, func() { e.RunUntil(e.Now().Add(100 * Microsecond)) }); got != 0 {
		t.Errorf("%v allocations per 150 timer firings, want 0", got)
	}
}
