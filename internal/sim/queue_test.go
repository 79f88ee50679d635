package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// refQueue is a naive reference implementation of the engine's queue
// contract: a linear sorted list with eager cancellation. The tiered queue
// must dispatch exactly the same (time, tag) sequence.
type refQueue struct {
	events []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	tag int
}

func (r *refQueue) schedule(at Time, seq uint64, tag int) {
	i := len(r.events)
	for i > 0 {
		prev := r.events[i-1]
		if prev.at < at || (prev.at == at && prev.seq < seq) {
			break
		}
		i--
	}
	r.events = append(r.events, refEvent{})
	copy(r.events[i+1:], r.events[i:])
	r.events[i] = refEvent{at: at, seq: seq, tag: tag}
}

func (r *refQueue) cancel(seq uint64) {
	for i, ev := range r.events {
		if ev.seq == seq {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return
		}
	}
}

func (r *refQueue) pop() (refEvent, bool) {
	if len(r.events) == 0 {
		return refEvent{}, false
	}
	ev := r.events[0]
	r.events = r.events[1:]
	return ev, true
}

// handedOut returns how many slots the queue has ever handed out: the
// high-water mark of its simultaneously allocated slots.
func (q *eventQueue) handedOut() int {
	if len(q.pages) == 0 {
		return 0
	}
	n := int(q.fresh) - (len(q.pages)-1)<<pageBits
	for _, p := range q.pages[:len(q.pages)-1] {
		n += len(p)
	}
	return n
}

// freeCount returns the length of the free list.
func (q *eventQueue) freeCount() int {
	n := 0
	for s := q.free; s != 0; s = q.rec(s - 1).next {
		n++
	}
	return n
}

// checkInvariants walks the whole queue and fails on any entry filed where
// the placement rules of queue.go do not put it, and walks the slot pages:
// every slot handed out is named by exactly one tier entry or free-list link,
// and no other slot is touched.
func (q *eventQueue) checkInvariants(t *testing.T, where string) {
	t.Helper()
	seen := make([]bool, q.fresh) // by slot number; every one handed out is below fresh
	mark := func(s uint32, what string) {
		if p := int(s >> pageBits); p >= len(q.pages) || int(s&pageMask) >= len(q.pages[p]) || s >= q.fresh {
			t.Fatalf("%s: %s names slot %d, never handed out", where, what, s)
		}
		if seen[s] {
			t.Fatalf("%s: slot %d is named twice, the second time by %s", where, s, what)
		}
		seen[s] = true
	}
	for _, ent := range q.near[q.nearPos:] {
		if mark(ent.slot, "the near run"); q.rec(ent.slot).home != 0 {
			t.Fatalf("%s: near entry for slot %d records an upper home", where, ent.slot)
		}
	}
	if w := q.wheelEnd - q.nearEnd; q.wheelEnd != 0 && (w < wheelSpan || w >= 2*wheelSpan || q.wheelEnd&(wheelSpan-1) != 0) {
		t.Fatalf("%s: window [%d, %d) is not one to two spans ending on a span boundary", where, q.nearEnd, q.wheelEnd)
	}
	n := 0
	for b := range q.buckets {
		for _, ent := range q.buckets[b] {
			n++
			mark(ent.slot, "a level-0 bucket")
			if ent.at < q.nearEnd || ent.at >= q.wheelEnd || int(ent.at>>wheelGranularityBits)&nearMask != b {
				t.Fatalf("%s: level-0 bucket %d holds at=%d, window [%d, %d)", where, b, ent.at, q.nearEnd, q.wheelEnd)
			}
		}
		if (len(q.buckets[b]) != 0) != (q.occ[b>>6]&(1<<uint(b&63)) != 0) {
			t.Fatalf("%s: level-0 occupancy bit %d out of step", where, b)
		}
	}
	if n != q.inWheel {
		t.Fatalf("%s: inWheel = %d, counted %d", where, q.inWheel, n)
	}
	n = 0
	for k := range q.upper {
		shift := uint(spanBits + levelBits*k)
		endByte := int(q.wheelEnd>>shift) & wheelMask
		for b := range q.upper[k].head {
			prev := uint32(0)
			for s := q.upper[k].head[b]; s != 0; s = q.rec(s - 1).next {
				n++
				mark(s-1, "an upper chain")
				c := q.rec(s - 1)
				switch {
				case c.prev != prev:
					t.Fatalf("%s: level %d bucket %d: back link broken at slot %d", where, k+1, b, s-1)
				case c.at < q.wheelEnd || int(c.at>>shift)&wheelMask != b || c.at>>(shift+levelBits) != q.wheelEnd>>(shift+levelBits):
					t.Fatalf("%s: level %d bucket %d holds at=%d, wheelEnd=%d", where, k+1, b, c.at, q.wheelEnd)
				case q.wheelEnd != 0 && (b < endByte || b == endByte && k > 0):
					t.Fatalf("%s: level %d bucket %d (at=%d) is not ahead of wheelEnd=%d", where, k+1, b, c.at, q.wheelEnd)
				case !c.live() || c.home != uint32(1+k<<levelBits+b):
					t.Fatalf("%s: level %d bucket %d: slot %d is dead or records home %d", where, k+1, b, s-1, c.home)
				}
				prev = s
			}
			if (q.upper[k].head[b] != 0) != (q.upper[k].occ[b>>6]&(1<<uint(b&63)) != 0) {
				t.Fatalf("%s: level %d occupancy bit %d out of step", where, k+1, b)
			}
		}
	}
	if n != q.inUpper {
		t.Fatalf("%s: inUpper = %d, counted %d", where, q.inUpper, n)
	}
	if q.size() != q.stats().Total() {
		t.Fatalf("%s: %d slots in use, tiers hold %+v", where, q.size(), q.stats())
	}
	for s := q.free; s != 0; s = q.rec(s - 1).next {
		if mark(s-1, "the free list"); q.rec(s-1).live() || q.rec(s-1).home != 0 {
			t.Fatalf("%s: free slot %d holds an event or a home", where, s-1)
		}
	}
	for p, page := range q.pages {
		for off := range page {
			s := uint32(p<<pageBits | off)
			switch rec := &page[off]; {
			case s < q.fresh && !seen[s]:
				t.Fatalf("%s: slot %d is neither queued nor free", where, s)
			case s >= q.fresh && (rec.gen != 0 || rec.home != 0 || rec.live()):
				t.Fatalf("%s: slot %d was written before it was handed out", where, s)
			}
		}
	}
}

// checkLanes walks the lane node pages: every node handed out waits on
// exactly one of lanes, each lane's nodes in ascending (time, seq) order
// behind at least one of its records holding a slot, or is free once.
func (q *eventQueue) checkLanes(t *testing.T, where string, lanes []Lane) {
	t.Helper()
	seen := make([]bool, q.nodeFresh)
	mark := func(n uint32, lane int) { // lane -1: the free list
		if p := int(n >> pageBits); p >= len(q.nodes) || int(n&pageMask) >= len(q.nodes[p]) || n >= q.nodeFresh {
			t.Fatalf("%s: lane %d names node %d, never handed out", where, lane, n)
		}
		if seen[n] {
			t.Fatalf("%s: node %d is named twice, the second time by lane %d", where, n, lane)
		}
		seen[n] = true
	}
	waiting := 0
	for i := range lanes {
		l := &lanes[i]
		if l.tail == 0 {
			continue
		}
		if l.queued == 0 {
			t.Fatalf("%s: lane %d holds nodes but no record in a slot", where, i)
		}
		var prev *laneNode
		for n := q.node(l.tail - 1).next; ; n = q.node(n - 1).next {
			mark(n-1, i)
			waiting++
			nd := q.node(n - 1)
			if prev != nil && entryCompare(entry{at: prev.at, seq: prev.seq}, entry{at: nd.at, seq: nd.seq}) >= 0 {
				t.Fatalf("%s: lane %d holds (%d, %d) after (%d, %d)", where, i, nd.at, nd.seq, prev.at, prev.seq)
			}
			if prev = nd; n == l.tail {
				break
			}
		}
		if prev.at != l.last {
			t.Fatalf("%s: lane %d ends at %d but records its last at %d", where, i, prev.at, l.last)
		}
	}
	if waiting != q.inLanes {
		t.Fatalf("%s: inLanes = %d, counted %d", where, q.inLanes, waiting)
	}
	for n := q.nodeFree; n != 0; n = q.node(n - 1).next {
		mark(n-1, -1)
	}
	for p, page := range q.nodes {
		for off := range page {
			if n := uint32(p<<pageBits | off); n < q.nodeFresh && !seen[n] {
				t.Fatalf("%s: node %d is neither on a lane nor free", where, n)
			}
		}
	}
}

// TestTieredQueueVsReference drives the engine and a naive sorted-list
// reference through the same randomized mix of schedules, cancels, re-arms,
// pops, peeks and bounded runs, with delays drawn across every level of the
// wheel, and requires identical dispatch sequences and a queue that obeys its
// placement rules after every operation.
//
// Every fourth run also pushes records onto three lanes: in order, out of
// order, at the same picosecond as the lane's last, and from inside handlers
// at and after the current instant. A twin engine schedules each of those as
// an ordinary event; the two must dispatch the same sequence and report the
// same Pending and QueueStats().Total() after every operation.
func TestTieredQueueVsReference(t *testing.T) {
	// Same-time ties, sub-bucket, bucket-crossing, inside one span, between
	// one and two spans, and one or more steps into each upper level.
	delays := []Duration{
		0, 0, Nanosecond, 40 * Nanosecond, 70 * Nanosecond, 300 * Nanosecond,
		3 * Microsecond, 12 * Microsecond, 17 * Microsecond, 30 * Microsecond,
		120 * Microsecond, 5 * Millisecond, 200 * Millisecond, 250 * Millisecond,
		2 * Second, 400 * Second, 30000 * Second,
	}
	// Lane records are receive timeouts: none is further off than 250 ms.
	laneDelays := delays[:14]
	rng := NewRand(DeriveSeed(1, "tiered-queue-vs-reference"))
	maxPages, maxNodePages, maxWaiting, outOfOrder := 0, 0, 0, 0
	for iter := 0; iter < 60; iter++ {
		// Every tenth run also schedules in bursts, so its slots spread over
		// four pages and its lane nodes over two while it schedules, cancels
		// and pops at every tier.
		grow := iter%10 == 1
		withLanes := iter%4 == 1
		e, twin := NewEngine(), NewEngine()
		var lanes [3]Lane
		ref := &refQueue{}
		// A dispatch is recorded as (time, seq, tag) for an ordinary event
		// and as (time, 0, -1-lane) for a lane record, whose payload does not
		// say which of the lane's records it is.
		var got, gotTwin []refEvent
		var ids, idsTwin []EventID // by tag; the schedule sequence number is tag+1
		var laneOf []int           // by tag: the lane a record was pushed on, or -1
		var lastAt [len(lanes)]Time
		// pushLane pushes a record on lane l at at, on the twin too unless a
		// twin handler is about to push it there itself.
		pushLane := func(l int, at Time, twinToo bool) {
			if lanes[l].queued > 0 && at < lanes[l].last {
				outOfOrder++
			}
			tag := len(ids)
			ev := Event{Kind: EvAppTick, Obj: uint32(l)}
			e.LaneAt(&lanes[l], at, ev)
			if twinToo {
				twin.AtEvent(at, ev)
			}
			ids, idsTwin, laneOf = append(ids, EventID{}), append(idsTwin, EventID{}), append(laneOf, l)
			lastAt[l] = at
			ref.schedule(at, uint64(tag+1), tag)
		}
		// dispatched records a dispatch on one engine; in lane runs every
		// eighth one pushes a lane record from inside its handler, at once or
		// after one of the delays, the same on both engines.
		dispatched := func(onTwin bool, ev refEvent) {
			n := len(got)
			if onTwin {
				n = len(gotTwin)
				gotTwin = append(gotTwin, ev)
			} else {
				got = append(got, ev)
			}
			if !withLanes || n%8 != 0 {
				return
			}
			l, d := n/8%len(lanes), laneDelays[n/8%len(laneDelays)]
			if n%16 == 0 {
				d = 0
			}
			if onTwin {
				twin.AfterEvent(d, Event{Kind: EvAppTick, Obj: uint32(l)})
			} else {
				pushLane(l, e.Now().Add(d), false)
			}
		}
		e.RegisterHandler(EvAppTick, func(now Time, ev Event) {
			e.LaneFired(&lanes[ev.Obj], ev)
			dispatched(false, refEvent{at: now, tag: -1 - int(ev.Obj)})
		})
		twin.RegisterHandler(EvAppTick, func(now Time, ev Event) {
			dispatched(true, refEvent{at: now, tag: -1 - int(ev.Obj)})
		})
		schedule := func(at Time) {
			tag := len(ids)
			rec := func(onTwin bool, eng *Engine) func() {
				return func() { dispatched(onTwin, refEvent{at: eng.Now(), seq: uint64(tag + 1), tag: tag}) }
			}
			ids, idsTwin = append(ids, e.At(at, rec(false, e))), append(idsTwin, twin.At(at, rec(true, twin)))
			laneOf = append(laneOf, -1)
			ref.schedule(at, uint64(tag+1), tag)
		}
		draw := func() Time {
			return e.Now().Add(delays[rng.Intn(len(delays))] + Duration(rng.Intn(1000)))
		}
		pop := func(where string) bool {
			want, ok := ref.pop()
			if e.Step() != ok || twin.Step() != ok {
				t.Fatalf("%s: engine or twin dispatched = %v, reference had an event = %v", where, !ok, ok)
			}
			if ok && laneOf[want.tag] >= 0 {
				want = refEvent{at: want.at, tag: -1 - laneOf[want.tag]}
			}
			if ok && (got[len(got)-1] != want || gotTwin[len(gotTwin)-1] != want) {
				t.Fatalf("%s: dispatched %+v, twin %+v, reference %+v", where, got[len(got)-1], gotTwin[len(gotTwin)-1], want)
			}
			return ok
		}
		cancel := func(tag int) {
			e.Cancel(ids[tag])
			twin.Cancel(idsTwin[tag])
			if laneOf[tag] < 0 { // lane records cannot be cancelled
				ref.cancel(uint64(tag + 1))
			}
		}
		timer := -1 // tag of one timer that is only ever re-armed, like a TCP RTO
		for ops := 0; ops < 3000; ops++ {
			where := fmt.Sprintf("iter %d op %d", iter, ops)
			if grow && ops%50 == 0 && e.q.queued < 300 {
				for range 60 {
					schedule(draw())
				}
			}
			if grow && ops%50 == 0 && e.q.inLanes < 1100 {
				for i := range 100 {
					pushLane(rng.Intn(len(lanes)), e.Now().Add(250*Millisecond+Duration(i)), true)
				}
			}
			switch r := rng.Intn(16); {
			case r < 6:
				pop(where)
			case r < 10 && withLanes && r >= 8:
				// Mostly a receive timeout's fixed distance, which keeps a
				// lane in order; otherwise a random one, or the lane's last
				// instant again.
				l, at := rng.Intn(len(lanes)), e.Now().Add(250*Millisecond+Duration(rng.Intn(1000)))
				switch k := rng.Intn(4); {
				case k == 0:
					at = e.Now().Add(laneDelays[rng.Intn(len(laneDelays))])
				case k == 1 && lastAt[l] >= e.Now():
					at = lastAt[l]
				}
				pushLane(l, at, true)
			case r < 10:
				schedule(draw())
			case r < 12: // cancel a random known tag (live, fired, cancelled or on a lane)
				if len(ids) > 0 {
					cancel(rng.Intn(len(ids)))
				}
			case r < 13: // re-arm
				if timer >= 0 {
					cancel(timer)
				}
				timer = len(ids)
				schedule(e.Now().Add(200 * Millisecond))
			case r < 14: // peek, as the quantum loop does between runs
				want := Never
				if len(ref.events) > 0 {
					want = ref.events[0].at
				}
				if at, atTwin := e.NextEventTime(), twin.NextEventTime(); at != want || atTwin != want {
					t.Fatalf("%s: NextEventTime = %v, twin %v, reference %v", where, at, atTwin, want)
				}
			default: // run to a deadline short of the next event, then go on from there
				if len(ref.events) > 0 && ref.events[0].at > e.Now() {
					gap := uint64(ref.events[0].at - e.Now())
					deadline := e.Now() + Time(rng.Uint64()%gap)
					e.RunUntil(deadline)
					twin.RunUntil(deadline)
					if e.Now() != deadline || twin.Now() != deadline {
						t.Fatalf("%s: RunUntil(%v) left the clocks at %v and %v", where, deadline, e.Now(), twin.Now())
					}
				}
			}
			e.q.checkInvariants(t, where)
			e.q.checkLanes(t, where, lanes[:])
			if p, pt := e.Pending(), twin.Pending(); p != pt || e.QueueStats().Total() != p || twin.QueueStats().Total() != pt {
				t.Fatalf("%s: Pending = %d, twin %d; QueueStats %+v, twin %+v", where, p, pt, e.QueueStats(), twin.QueueStats())
			}
			maxWaiting = max(maxWaiting, e.q.inLanes)
		}
		maxPages, maxNodePages = max(maxPages, len(e.q.pages)), max(maxNodePages, len(e.q.nodes))
		for pop(fmt.Sprintf("iter %d drain", iter)) {
		}
		if e.Pending() != 0 || twin.Pending() != 0 {
			t.Fatalf("iter %d: Pending = %d, twin %d after drain", iter, e.Pending(), twin.Pending())
		}
		for l := range lanes {
			if lanes[l].tail != 0 || lanes[l].queued != 0 {
				t.Fatalf("iter %d: lane %d not empty after drain: %+v", iter, l, lanes[l])
			}
		}
		e.q.checkInvariants(t, fmt.Sprintf("iter %d drained", iter))
		e.q.checkLanes(t, fmt.Sprintf("iter %d drained", iter), lanes[:])
	}
	if maxPages < 4 {
		t.Fatalf("no run crossed three slot-page boundaries (at most %d pages)", maxPages)
	}
	if maxNodePages < 2 || outOfOrder < 100 {
		t.Fatalf("lane nodes took at most %d pages (%d at once), %d records were pushed out of order", maxNodePages, maxWaiting, outOfOrder)
	}
}

// TestCancelAfterFireDoesNotGrow is the regression test for the old engine's
// cancelled-map leak: cancelling an already-fired (or fabricated) EventID
// inserted a map entry that nothing ever deleted, so long TCP runs with
// retransmission timers grew without bound. With generation-tagged slots a
// stale cancel must touch nothing.
func TestCancelAfterFireDoesNotGrow(t *testing.T) {
	e := NewEngine()
	var stale []EventID
	for round := 0; round < 1000; round++ {
		id := e.After(Duration(round)*Nanosecond, func() {})
		stale = append(stale, id)
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
	slotsAfterDrain := e.q.handedOut()
	freeAfterDrain := e.q.freeCount()
	// Hammer stale cancels: every fired ID, many times over, plus the zero ID.
	for i := 0; i < 10; i++ {
		for _, id := range stale {
			e.Cancel(id)
		}
		e.Cancel(EventID{})
	}
	if e.Pending() != 0 {
		t.Fatalf("stale cancels changed Pending to %d", e.Pending())
	}
	if e.q.handedOut() != slotsAfterDrain || e.q.freeCount() != freeAfterDrain {
		t.Fatalf("stale cancels grew the slot pages: slots %d->%d free %d->%d",
			slotsAfterDrain, e.q.handedOut(), freeAfterDrain, e.q.freeCount())
	}
	// The engine must still work, reusing the freed slots rather than
	// growing: steady-state churn with cancel-after-fire traffic keeps the
	// table at its high-water mark.
	for round := 0; round < 5000; round++ {
		id := e.After(10*Nanosecond, func() {})
		e.Step()
		e.Cancel(id) // always stale: the event just fired
	}
	if e.q.handedOut() != slotsAfterDrain {
		t.Fatalf("steady-state churn grew the slot pages %d -> %d",
			slotsAfterDrain, e.q.handedOut())
	}
}

// TestCancelReleasesClosureSlot asserts a cancelled event's callback is
// dropped at cancel time (the slot record is cleared for the GC) and that the
// freed slot is reused by later events instead of growing the table. An event
// inside the wheel window keeps its queue entry until it surfaces; one in an
// upper level gives its slot back in Cancel.
func TestCancelReleasesClosureSlot(t *testing.T) {
	e := NewEngine()
	e.At(0, func() {})
	e.Step() // open the window
	id := e.After(Microsecond, func() {})
	if got := e.q.handedOut(); got != 1 {
		t.Fatalf("slots handed out = %d, want 1", got)
	}
	e.Cancel(id)
	if fn := e.q.rec(0).ev.Tgt; fn != nil {
		t.Fatal("cancel left the callback pinned in its slot")
	}
	// The dead entry still occupies the queue until it surfaces.
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (dead entry not yet popped)", e.Pending())
	}
	if got := e.NextEventTime(); got != Never {
		t.Fatalf("NextEventTime = %v, want Never", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after the dead head was discarded", e.Pending())
	}
	// A new event reuses slot 0 under a fresh generation; the stale ID
	// cannot touch it.
	id2 := e.After(Microsecond, func() {})
	if e.q.handedOut() != 1 {
		t.Fatalf("slots grew to %d instead of reusing the freed slot", e.q.handedOut())
	}
	e.Cancel(id) // stale generation: must not cancel the new tenant
	if e.q.rec(0).ev.Tgt == nil {
		t.Fatal("stale EventID cancelled the slot's new tenant")
	}
	e.Cancel(id2)
	if e.q.rec(0).ev.Tgt != nil {
		t.Fatal("fresh EventID failed to cancel")
	}
	// Beyond the window nothing is left behind at all.
	far := e.After(200*Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (dead near entry + live timer)", e.Pending())
	}
	e.Cancel(far)
	if e.Pending() != 1 || e.q.inUpper != 0 {
		t.Fatalf("cancelled timer still queued: Pending = %d, upper = %d", e.Pending(), e.q.inUpper)
	}
}

// TestQueueJumpsAcrossSparseEvents exercises the empty-window jump: events
// far more than a span apart, up to hours, scheduled in reverse order.
func TestQueueJumpsAcrossSparseEvents(t *testing.T) {
	e := NewEngine()
	var fired, want []Time
	for _, step := range []Duration{100 * Microsecond, 7 * Millisecond, 3 * Second, 5000 * Second} {
		for i := 20; i >= 1; i-- {
			at := Time(i) * Time(step)
			want = append(want, at)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
	}
	slices.Sort(want)
	e.Run()
	if !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestShortDelaysStayInLevelZero is the white-box half of the rolling
// window: whatever the cursor's position inside a span, an event scheduled
// from a handler less than one span ahead is filed in level 0 (or the near
// run) and never touches an upper level.
func TestShortDelaysStayInLevelZero(t *testing.T) {
	e := NewEngine()
	rng := NewRand(DeriveSeed(1, "short-delays"))
	left := 20000
	var hop func()
	hop = func() {
		if left--; left < 0 {
			return
		}
		// 12 µs is a full-size frame at 1 Gb/s; the rest sweep [0, span).
		d := 12 * Microsecond
		if left%3 != 0 {
			d = Duration(rng.Uint64() % uint64(wheelSpan))
		}
		before := e.q.inUpper
		e.After(d, hop)
		if e.q.inUpper != before {
			t.Fatalf("t=%v: a %v delay was filed in an upper level (window [%d, %d))", e.Now(), d, e.q.nearEnd, e.q.wheelEnd)
		}
	}
	// A few long timers keep the upper levels and the cascade busy meanwhile.
	for i := 1; i <= 50; i++ {
		e.At(Time(i)*Time(3*Millisecond), func() {})
	}
	e.At(0, hop)
	e.At(0, hop)
	e.Run()
	if left >= 0 {
		t.Fatalf("chain stopped with %d hops left", left)
	}
}

// TestRearmLoopStaysSmall is the TCP retransmission-timer pattern: a 200 ms
// timer cancelled and re-armed at every 12 µs hop, a million times over many
// simulated seconds. The queue must hold the live timers, not the arms.
func TestRearmLoopStaysSmall(t *testing.T) {
	e := NewEngine()
	const conns, arms = 8, 1_000_000
	var timers [conns]EventID
	n := 0
	var hop func()
	hop = func() {
		c := n % conns
		e.Cancel(timers[c])
		timers[c] = e.After(200*Millisecond, func() {})
		if n++; n < arms {
			e.After(12*Microsecond, hop)
		}
		if p := e.Pending(); p > conns+1 {
			t.Fatalf("arm %d: Pending = %d with %d live timers", n, p, conns)
		}
	}
	e.At(0, hop)
	e.RunUntil(Time(arms) * Time(12*Microsecond))
	if got := e.q.handedOut(); got > conns+2 {
		t.Fatalf("slots grew to %d for %d live timers and one hop", got, conns)
	}
	if e.Pending() != conns {
		t.Fatalf("Pending = %d, want the %d live timers", e.Pending(), conns)
	}
}

// TestSlotPagesGrowWithoutCopying: 200 k far timers cost the pages that hold
// their slots and next to nothing else (the old slot table was regrown and
// copied about 20 times on the way), and re-arming them all into the slots
// their cancels freed costs nothing.
func TestSlotPagesGrowWithoutCopying(t *testing.T) {
	pageSlotsOf := func(e *Engine) (n int) {
		for _, p := range e.q.pages {
			n += len(p)
		}
		return n
	}
	// A model as small as incast-tcp-16, 75 events pending at most, keeps
	// its slot storage as small: the early pages are small.
	small := NewEngine()
	for i := range 75 {
		small.After(Duration(i), func() {})
	}
	if n := pageSlotsOf(small); n > 2*75 {
		t.Fatalf("75 pending events took %d slots of pages", n)
	}

	const timers = 200_000
	e := NewEngine()
	ids := make([]EventID, timers)
	arm := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range ids {
			ids[i] = e.AtEvent(Time(Second)+Time(i), Event{Kind: EvAppTick})
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	grown := arm()
	slots := pageSlotsOf(e)
	pageBytes := uint64(slots) * uint64(reflect.TypeFor[slotRec]().Size())
	if slots < timers || grown > pageBytes*11/10 {
		t.Fatalf("%d timers allocated %d B; their %d slots' pages take %d B", timers, grown, slots, pageBytes)
	}
	for _, id := range ids {
		e.Cancel(id)
	}
	if rearmed := arm(); rearmed != 0 {
		t.Fatalf("re-arming %d timers into freed slots allocated %d B", timers, rearmed)
	}
	e.q.checkInvariants(t, "re-armed")
}

// TestLevelZeroSeedBytes: an engine whose events fill a few level-0 buckets
// zeroes seed storage for one group of buckets, not for the whole level. A
// partitioned cluster has one engine per rack, and each pays this in its
// first quantum, which counts as set-up.
func TestLevelZeroSeedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	e := NewEngine()
	e.RegisterHandler(EvAppTick, func(Time, Event) {})
	for i := range 8 {
		e.AtEvent(Time(i)*Time(100*Nanosecond), Event{Kind: EvAppTick})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(Time(Microsecond))
	runtime.ReadMemStats(&after)
	group := uint64(slabBuckets*bucketSeedCap) * uint64(reflect.TypeFor[entry]().Size())
	if got := after.TotalAlloc - before.TotalAlloc; got > group+2048 {
		t.Fatalf("a run through 8 buckets allocated %d B; one group of seeds is %d B", got, group)
	}
	e.q.checkInvariants(t, "seeded")
}

// TestEnqueueCopiesEvent guards Engine.enqueue's field-by-field write of the
// record: an Event with every field set reaches its handler whole, scheduled
// by AtEvent and carried by LaneFired. If Event gains a field, the count below
// fails until enqueue's list names it too.
func TestEnqueueCopiesEvent(t *testing.T) {
	if n := reflect.TypeOf(Event{}).NumField(); n != 5 {
		t.Fatalf("Event has %d fields; enqueue copies 5: add the new one there, then here", n)
	}
	tgt, ref := new(int), new(string)
	want := Event{Kind: EvAppTick, Obj: 7, Arg: 1 << 40, Tgt: tgt, Ref: ref}
	e := NewEngine()
	var lane Lane
	var got []Event
	e.RegisterHandler(EvAppTick, func(_ Time, ev Event) {
		got = append(got, ev)
		if ev.Obj == want.Obj {
			e.LaneFired(&lane, ev)
		}
	})
	e.AtEvent(Time(Microsecond), Event{Kind: EvAppTick, Obj: 1})
	e.LaneAt(&lane, Time(2*Microsecond), want)
	e.LaneAt(&lane, Time(3*Microsecond), Event{Kind: EvAppTick})
	e.Run()
	if len(got) != 3 || got[0] != (Event{Kind: EvAppTick, Obj: 1}) || got[1] != want || got[2] != want {
		t.Fatalf("handlers saw %+v, want the plain record and then %+v twice", got, want)
	}
}

// TestNearRunStorageAllocs: a drained bucket whose run fits is copied into
// the near run's array, so an array grown by insertNear stays with the near
// run. A burst of same-instant records grows it, a chain then drains 1,000
// one-entry buckets, and the same burst runs again: the sequence allocates
// nothing. Swapping bucket and near storage on every drain instead hands the
// grown array to a bucket, and the next burst regrows it.
func TestNearRunStorageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const burst, hops = 200, 1000
	e := NewEngine()
	left := 0
	e.RegisterHandler(EvAppTick, func(_ Time, ev Event) {
		switch ev.Obj {
		case 1: // the burst: all at this instant, so all in the near run
			for range burst {
				e.AfterEvent(0, Event{Kind: EvAppTick})
			}
		case 2: // the chain: 100 ns apart, one entry per level-0 bucket
			if left--; left > 0 {
				e.AfterEvent(100*Nanosecond, ev)
			}
		}
	})
	sequence := func() {
		e.AfterEvent(0, Event{Kind: EvAppTick, Obj: 1})
		e.Run()
		left = hops
		e.AfterEvent(0, Event{Kind: EvAppTick, Obj: 2})
		e.Run()
		e.AfterEvent(0, Event{Kind: EvAppTick, Obj: 1})
		e.Run()
	}
	if n := testing.AllocsPerRun(5, sequence); n != 0 {
		t.Fatalf("burst, %d one-entry drains and burst again allocated %v objects", hops, n)
	}
	e.q.checkInvariants(t, "after the bursts")
}

// TestForEachPendingAcrossPages is the packet-leak audit's contract: every
// typed record still queued — in the near run, level 0 or an upper level, on
// any slot page — is visited exactly once, and nothing dispatched or
// cancelled is.
func TestForEachPendingAcrossPages(t *testing.T) {
	e := NewEngine()
	e.RegisterHandler(EvPacketHop, func(Time, Event) {})
	delays := []Duration{0, 300 * Nanosecond, 12 * Microsecond, 200 * Millisecond}
	const n = 3000
	pkts := make([]int, n)
	ids := make([]EventID, n)
	for i := range pkts {
		ids[i] = e.AfterEvent(delays[i%len(delays)]+Duration(i), Event{Kind: EvPacketHop, Ref: &pkts[i]})
		e.After(Duration(i), func() {}) // closures are skipped
	}
	want := map[*int]bool{}
	for i := range pkts {
		if i%3 == 0 {
			e.Cancel(ids[i])
		} else {
			want[&pkts[i]] = true
		}
	}
	e.RunUntil(Time(n/2) * Time(Nanosecond)) // dispatch the earliest
	for i := range pkts {
		if at := Time(delays[i%len(delays)] + Duration(i)); at <= e.Now() {
			delete(want, &pkts[i])
		}
	}
	if len(e.q.pages) < 4 {
		t.Fatalf("the queue spans %d slot pages, want at least 4", len(e.q.pages))
	}
	e.ForEachPending(func(ev Event) {
		p := ev.Ref.(*int)
		if ev.Kind != EvPacketHop || !want[p] {
			t.Fatalf("visited %v carrying packet %p, which is not pending", ev.Kind, p)
		}
		delete(want, p)
	})
	if len(want) != 0 {
		t.Fatalf("%d pending packets were not visited", len(want))
	}
}

// TestSchedulableHorizon pins the documented limit from both sides: the last
// schedulable instant is dispatched on time from any distance — through the
// top wheel level, with no overflow in the window arithmetic — and one
// picosecond beyond it is rejected loudly.
func TestSchedulableHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	want := []Time{1, Time(Second), maxSchedulable - Time(Second), maxSchedulable - 1, maxSchedulable, maxSchedulable}
	for i := len(want) - 1; i >= 0; i-- {
		e.At(want[i], note)
	}
	e.Run()
	if !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	e.After(0, note) // the clock now stands at the horizon itself
	e.Run()
	for _, at := range []Time{maxSchedulable + 1, Never} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("scheduling at %d, beyond the horizon, did not panic", at)
				}
			}()
			e.At(at, note)
		}()
	}
}

// BenchmarkQueueModelMix replays the schedule mix measured on the whole-model
// benchmark workloads, which an engine microbenchmark of short chains never
// leaves level 0 to see: 12 µs packet hops, a 200 ms retransmission timer
// cancelled and re-armed at every hop, and 250 ms receive timeouts that are
// never cancelled, about 50 k of them pending at any time.
func BenchmarkQueueModelMix(b *testing.B) {
	const (
		chains         = 64
		hop            = 12 * Microsecond
		hopsPerTimeout = 27 // 64 chains / 12 µs / 27 × 250 ms ≈ 49 k pending
		slice          = 25 * Millisecond
	)
	e := NewEngine()
	var rto [chains]EventID
	hops := 0
	e.RegisterHandler(EvAppTick, func(_ Time, ev Event) {
		if ev.Arg == 0 {
			return // a timer firing
		}
		e.Cancel(rto[ev.Obj])
		rto[ev.Obj] = e.AfterEvent(200*Millisecond, Event{Kind: EvAppTick})
		if hops++; hops%hopsPerTimeout == 0 {
			e.AfterEvent(250*Millisecond, Event{Kind: EvAppTick})
		}
		e.AfterEvent(hop, ev)
	})
	for c := 0; c < chains; c++ {
		e.AtEvent(Time(c)*Time(hop)/chains, Event{Kind: EvAppTick, Obj: uint32(c), Arg: 1})
	}
	e.RunUntil(Time(250 * Millisecond)) // fill the timeout pipeline
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Executed
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now().Add(slice))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Executed-start), "ns/event")
	b.ReportMetric(float64(e.Pending()), "pending")
}

// BenchmarkQueueSparse replays the incast-tcp-16 queue shape, which the
// memcached mix above does not: about 75 pending records, most of them far
// timers, so the level-0 buckets it drains hold 1.05 entries each and the
// cost is instructions per event, not cache misses. Each dispatch schedules
// its chain's successor after 0.25–8 µs (40 % at 1 µs, 20 % at 8 µs, 4 % at
// once); one in twenty also cancels a 34–275 ms retransmission timer and
// re-arms it in an upper level, and one in a hundred schedules a record it
// cancels at once, which dies when it surfaces.
func BenchmarkQueueSparse(b *testing.B) {
	const (
		chains = 8
		timers = 64
		slice  = 5 * Millisecond
	)
	type step struct {
		delay, far    Duration
		rearm, doomed bool
	}
	rng := NewRand(DeriveSeed(1, "queue-sparse"))
	plan := make([]step, 4096)
	for i := range plan {
		p := &plan[i]
		switch r := rng.Intn(100); {
		case r < 4:
		case r < 44:
			p.delay = Microsecond + Duration(rng.Intn(64))
		case r < 64:
			p.delay = 8*Microsecond + Duration(rng.Intn(64))
		default:
			p.delay = 250*Nanosecond + Duration(rng.Uint64()%uint64(7750*Nanosecond))
		}
		p.rearm = rng.Intn(20) == 0
		p.far = 34*Millisecond + Duration(rng.Uint64()%uint64(241*Millisecond))
		p.doomed = rng.Intn(100) == 0
	}
	e := NewEngine()
	var rto [timers]EventID
	timer := Event{Kind: EvAppTick}
	n := 0
	e.RegisterHandler(EvAppTick, func(_ Time, ev Event) {
		if ev.Arg == 0 {
			return // a timer firing
		}
		p := &plan[n&(len(plan)-1)]
		if n++; p.rearm {
			t := n % timers
			e.Cancel(rto[t])
			rto[t] = e.AfterEvent(p.far, timer)
		}
		if p.doomed {
			e.Cancel(e.AfterEvent(p.delay/2, timer))
		}
		e.AfterEvent(p.delay, ev)
	})
	for t := range rto {
		rto[t] = e.AfterEvent(34*Millisecond+Duration(t), timer)
	}
	for c := range chains {
		e.AtEvent(Time(c)*Time(Microsecond)/chains, Event{Kind: EvAppTick, Obj: uint32(c), Arg: 1})
	}
	e.RunUntil(Time(slice)) // seed the level-0 buckets and the slot pages
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Executed
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now().Add(slice))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Executed-start), "ns/event")
	b.ReportMetric(float64(e.Pending()), "pending")
}
