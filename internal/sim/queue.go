package sim

import (
	"math/bits"
	"slices"
)

// This file implements the engine's event queue: a sorted run fed by a
// hierarchical timing wheel. Scheduling, cancelling and popping are O(1) at
// every distance; there is no heap.
//
//   - "near": the sorted run of the very next events, consumed front to
//     back. Only zero/short-delay events are inserted into it directly (a
//     binary search plus a short memmove).
//   - level 0: buckets of 2^16 ps (~65.5 ns) over the rolling window
//     [nearEnd, wheelEnd). The window always reaches at least one span
//     (256 buckets, ~16.8 µs) past the cursor nearEnd and ends on a span
//     boundary, so it covers up to two spans and level 0 has 512 buckets.
//     An event less than one span ahead of the running handler therefore
//     always lands here: an O(1) append. A bucket is sorted by (time, seq)
//     once, when the cursor reaches it, and becomes the next near run.
//   - levels 1..5: 256 buckets each, every level 256 times coarser than the
//     one below (16.8 µs, 4.3 ms, 1.1 s, 281 s, 20 h per bucket), together
//     spanning every schedulable time. An event at or past wheelEnd goes to
//     the level of the highest byte in which its time differs from wheelEnd.
//     Buckets are intrusive doubly-linked chains threaded through a table
//     parallel to the slot table, so an upper level costs 1 KB of heads and
//     holding an event there costs nothing beyond its slot.
//
// What rolls: each time the cursor moves, wheelEnd is advanced span by span
// until it is a full span ahead again, and each step drops the level-1 bucket
// the window now covers into level 0. What cascades: whenever wheelEnd reaches
// the start of a bucket of level 2 or above, that bucket is emptied, highest
// level first, and its events re-filed further down; an event moves down at
// most once per level. When level 0 runs empty the window jumps straight to
// the earliest occupied upper bucket.
//
// Cancellation is O(1) and allocation-free: every queued event owns a slot
// in a generation-tagged slot table, and an EventID is (slot, generation).
// Cancel clears the slot's record (releasing its references to the GC). An
// event still in an upper level is unlinked and its slot freed on the spot,
// so arm-then-cancel timers (TCP's RTO) never accumulate; one already in
// level 0 or the near run dies lazily when it surfaces at the head. A stale
// EventID — already fired, already cancelled, or from another engine — fails
// the generation check and touches nothing.
//
// Determinism: dispatch order is exactly ascending (time, schedule-seq),
// which the randomized cross-check in queue_test.go asserts against a naive
// reference queue.
const (
	wheelGranularityBits = 16 // 2^16 ps ≈ 65.5 ns per level-0 bucket
	levelBits            = 8  // each level is 2^8 times coarser than the last
	wheelBuckets         = 1 << levelBits
	wheelMask            = wheelBuckets - 1
	wheelSpan            = Time(wheelBuckets) << wheelGranularityBits
	nearBuckets          = 2 * wheelBuckets // level 0 indexes two spans
	nearMask             = nearBuckets - 1
	spanBits             = wheelGranularityBits + levelBits
	upperLevels          = (63 - spanBits + levelBits - 1) / levelBits

	// maxSchedulable bounds event times so window arithmetic can never
	// overflow: the cursor sits at most one bucket past an event and wheelEnd
	// less than two spans past the cursor. Scheduling beyond it panics in
	// Engine.AtEvent.
	maxSchedulable = Never - 3*wheelSpan

	// bucketSeedCap is the capacity given to a level-0 bucket on its
	// first-ever append, skipping the 1→2→4→8 growth ladder so queue warm-up
	// costs one allocation for the whole level instead of log2(occupancy) per
	// bucket.
	bucketSeedCap = 8
)

// entry is one queued event reference: 24 bytes, no pointers, so sorting
// entries never traffics in closures and the near/bucket arrays are
// invisible to the garbage collector. In an upper-level chain slot and prev
// are the links (1-based slot numbers, 0 = none) and the entry's own slot is
// its index in the chain table.
type entry struct {
	at   Time
	seq  uint64 // tie-break: schedule order, makes execution deterministic
	slot uint32
	prev uint32
}

// entryCompare orders entries by (time, seq) for slices.SortFunc.
func entryCompare(a, b entry) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// slotRec is a generation-tagged payload slot holding one event record;
// ev.Kind == evNone marks a cancelled or free slot. gen increments every time
// the slot is released, so stale EventIDs can never cancel the slot's next
// tenant. home is 1 + k<<levelBits + b while the event is chained in bucket b
// of upper[k], 0 otherwise.
type slotRec struct {
	gen  uint32
	home uint32
	ev   Event
}

// live reports whether the slot still holds a dispatchable payload.
func (r *slotRec) live() bool { return r.ev.Kind != evNone }

// upperLevel is one coarse wheel level: chain heads (1-based slots) and the
// occupancy bitmap the empty-queue jump searches.
type upperLevel struct {
	head [wheelBuckets]uint32
	occ  [wheelBuckets / 64]uint64
}

// eventQueue is the tiered priority queue. The zero value is ready to use:
// with an empty window (wheelEnd == 0) every insert lands in an upper level
// and the first pop jumps the cursor to the earliest event.
type eventQueue struct {
	// The sorted run currently being consumed. Entries in near[nearPos:] are
	// exactly the queued events with at < nearEnd.
	near    []entry
	nearPos int
	nearEnd Time // bucket-aligned; lower edge of the next undrained bucket

	// Level 0 over [nearEnd, wheelEnd).
	buckets  [nearBuckets][]entry
	occ      [nearBuckets / 64]uint64
	inWheel  int
	wheelEnd Time // span-aligned; wheelSpan <= wheelEnd-nearEnd < 2*wheelSpan once open

	// Upper levels hold the events with at >= wheelEnd; chain[s] is slot s's
	// link record while slots[s].home != 0.
	upper   [upperLevels]upperLevel
	chain   []entry
	inUpper int

	// slab carves bucketSeedCap-sized initial backing arrays for level-0
	// buckets, so warming the level costs one allocation, not one per bucket.
	slab []entry

	// generation-tagged slot table + free list.
	slots []slotRec
	free  []uint32
}

// size reports the number of queued entries, including cancelled ones that
// have not surfaced yet. A slot is allocated exactly while its entry is
// queued, so this is O(1).
func (q *eventQueue) size() int { return len(q.slots) - len(q.free) }

func (q *eventQueue) allocSlot() uint32 {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		return s
	}
	q.slots = append(q.slots, slotRec{})
	q.chain = append(q.chain, entry{})
	return uint32(len(q.slots) - 1)
}

func (q *eventQueue) freeSlot(s uint32) {
	rec := &q.slots[s]
	rec.ev = Event{} // release Tgt/Ref for GC
	rec.gen++
	q.free = append(q.free, s)
}

// place routes an entry into the tier covering its timestamp.
func (q *eventQueue) place(ent entry) {
	switch {
	case ent.at < q.nearEnd:
		q.insertNear(ent)
	case ent.at < q.wheelEnd:
		q.bucketAppend(int(ent.at>>wheelGranularityBits)&nearMask, ent)
	default:
		q.upperPush(ent)
	}
}

// schedule inserts an event and returns its cancellation handle. The caller
// guarantees now <= at <= maxSchedulable, a strictly increasing seq and a
// validated ev.Kind. Nothing is allocated unless the slot table or a tier
// array itself must grow.
func (q *eventQueue) schedule(at Time, seq uint64, ev Event) EventID {
	s := q.allocSlot()
	rec := &q.slots[s]
	rec.ev = ev
	q.place(entry{at: at, seq: seq, slot: s})
	return EventID{slot: s + 1, gen: rec.gen}
}

// bucketAppend places a level-0 entry, marking occupancy and seeding capacity
// on a bucket's first-ever use. Steady state appends into capacity the bucket
// already owns.
func (q *eventQueue) bucketAppend(b int, ent entry) {
	if len(q.buckets[b]) == 0 {
		q.occ[b>>6] |= 1 << uint(b&63)
		if cap(q.buckets[b]) == 0 {
			if len(q.slab) < bucketSeedCap {
				q.slab = make([]entry, nearBuckets*bucketSeedCap)
			}
			q.buckets[b] = q.slab[:0:bucketSeedCap]
			q.slab = q.slab[bucketSeedCap:]
		}
	}
	q.buckets[b] = append(q.buckets[b], ent)
	q.inWheel++
}

// upperPush chains an entry with at >= wheelEnd into the level of the highest
// byte in which at differs from wheelEnd: it shares that level's parent
// interval with the window's end, so the bucket index cannot alias.
func (q *eventQueue) upperPush(ent entry) {
	k := (bits.Len64(uint64(ent.at^q.wheelEnd)>>(spanBits+levelBits)) + levelBits - 1) / levelBits
	b := int(ent.at>>(spanBits+levelBits*k)) & wheelMask
	lv, s := &q.upper[k], ent.slot
	next := lv.head[b]
	if next == 0 {
		lv.occ[b>>6] |= 1 << uint(b&63)
	} else {
		q.chain[next-1].prev = s + 1
	}
	q.chain[s] = entry{at: ent.at, seq: ent.seq, slot: next}
	lv.head[b] = s + 1
	q.slots[s].home = uint32(1 + k<<levelBits + b)
	q.inUpper++
}

// unlink removes slot s from its upper-level chain.
func (q *eventQueue) unlink(s uint32) {
	home := q.slots[s].home - 1
	q.slots[s].home = 0
	q.inUpper--
	c := q.chain[s]
	if c.slot != 0 {
		q.chain[c.slot-1].prev = c.prev
	}
	if c.prev != 0 {
		q.chain[c.prev-1].slot = c.slot
		return
	}
	lv, b := &q.upper[home>>levelBits], home&wheelMask
	if lv.head[b] = c.slot; c.slot == 0 {
		lv.occ[b>>6] &^= 1 << (b & 63)
	}
}

// cancel marks the identified event dead if it is still queued. It returns
// whether the ID was live. Stale or zero IDs are no-ops with no side effects.
// The payload is released immediately; the slot is freed here if the event
// waits in an upper level, and when its entry reaches the head otherwise.
func (q *eventQueue) cancel(id EventID) bool {
	if id.slot == 0 {
		return false
	}
	s := id.slot - 1
	if int(s) >= len(q.slots) || q.slots[s].gen != id.gen || !q.slots[s].live() {
		return false
	}
	if q.slots[s].home != 0 {
		q.unlink(s)
		q.freeSlot(s)
	} else {
		q.slots[s].ev = Event{}
	}
	return true
}

// insertNear splices an entry into the live tail of the sorted run. New
// entries carry the largest seq, so the insertion point is the upper bound
// on time alone.
func (q *eventQueue) insertNear(ent entry) {
	if q.nearPos == len(q.near) {
		q.near = q.near[:0]
		q.nearPos = 0
	} else if q.nearPos > 32 && q.nearPos*2 >= len(q.near) {
		// Compact the consumed prefix so a long-lived run cannot grow
		// without bound under a schedule-at-now loop.
		n := copy(q.near, q.near[q.nearPos:])
		q.near = q.near[:n]
		q.nearPos = 0
	}
	if n := len(q.near); n == q.nearPos || q.near[n-1].at <= ent.at {
		q.near = append(q.near, ent) // common case: at or after the tail
		return
	}
	lo, hi := q.nearPos, len(q.near)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.near[mid].at <= ent.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.near = append(q.near, entry{})
	copy(q.near[lo+1:], q.near[lo:])
	q.near[lo] = ent
}

// ensureNear makes near[nearPos] the global head, draining level 0 and
// jumping to the upper levels as needed. It reports whether any entry is
// queued at all.
func (q *eventQueue) ensureNear() bool {
	for q.nearPos == len(q.near) {
		if q.inWheel > 0 {
			q.drainNextBucket()
			return true
		}
		if q.inUpper == 0 {
			return false
		}
		q.jump()
	}
	return true
}

// drainNextBucket turns the earliest occupied bucket into the new near run
// and rolls the window after the cursor. Only called with inWheel > 0.
func (q *eventQueue) drainNextBucket() {
	b := int(q.nearEnd>>wheelGranularityBits) & nearMask
	idx := nextOccupied(q.occ[:], b)
	dist := (idx - b) & nearMask

	// A run that fits is copied into the exhausted near array, so an array
	// grown by insertNear or by one crowded bucket stays where it is needed;
	// a larger one swaps storage with it. Steady state allocates nothing.
	run := q.buckets[idx]
	if len(run) <= cap(q.near) {
		q.buckets[idx] = run[:0]
		run = append(q.near[:0], run...)
	} else {
		q.buckets[idx] = q.near[:0]
	}
	q.near = run
	q.nearPos = 0
	q.occ[idx>>6] &^= 1 << uint(idx&63)
	q.inWheel -= len(run)
	q.nearEnd += Time(dist+1) << wheelGranularityBits
	for q.wheelEnd-q.nearEnd < wheelSpan {
		q.advance()
	}

	// A bucket holds appends from possibly interleaved schedule orders;
	// one sort per bucket establishes the (time, seq) dispatch order.
	if len(run) > 1 {
		slices.SortFunc(run, entryCompare)
	}
}

// nextOccupied returns the index of the first set bit at or after b in
// circular order, or -1 if the bitmap (a power-of-two number of words) is
// empty.
func nextOccupied(occ []uint64, b int) int {
	w := b >> 6
	word := occ[w] &^ (1<<uint(b&63) - 1)
	for i := 0; i <= len(occ); i++ {
		if word != 0 {
			return (w << 6) + bits.TrailingZeros64(word)
		}
		w = (w + 1) & (len(occ) - 1)
		word = occ[w]
	}
	return -1
}

// cascade empties bucket b of upper level k, which begins at or just behind
// wheelEnd, and re-places its events: into level 0 or a lower upper level.
func (q *eventQueue) cascade(k, b int) {
	lv := &q.upper[k]
	s := lv.head[b]
	if s == 0 {
		return
	}
	lv.head[b] = 0
	lv.occ[b>>6] &^= 1 << uint(b&63)
	for s != 0 {
		ent := q.chain[s-1]
		next := ent.slot
		ent.slot, ent.prev = s-1, 0
		q.slots[s-1].home = 0
		q.inUpper--
		q.place(ent)
		s = next
	}
}

// open cascades every bucket above level 1 that begins at wheelEnd, highest
// level first, so what a coarse bucket sheds into the bucket below it is
// re-placed in turn. Above level 1 an occupied bucket therefore always lies
// strictly ahead of wheelEnd's own.
func (q *eventQueue) open() {
	for k := upperLevels - 1; k > 0; k-- {
		if shift := uint(spanBits + levelBits*k); q.wheelEnd&(Time(1)<<shift-1) == 0 {
			q.cascade(k, int(q.wheelEnd>>shift)&wheelMask)
		}
	}
}

// advance rolls the window one span forward: the level-1 bucket it now
// covers drops into level 0.
func (q *eventQueue) advance() {
	b := int(q.wheelEnd>>spanBits) & wheelMask
	q.wheelEnd += wheelSpan
	q.cascade(0, b)
	q.open()
}

// jump moves the empty window to the earliest occupied upper bucket: the
// lowest occupied level holds the earliest events, and no bucket behind
// wheelEnd is ever occupied. Only called with inWheel == 0 and inUpper > 0.
func (q *eventQueue) jump() {
	for k := range q.upper {
		b := nextOccupied(q.upper[k].occ[:], 0)
		if b < 0 {
			continue
		}
		shift := uint(spanBits + levelBits*k)
		h := q.wheelEnd&^(Time(1)<<(shift+levelBits)-1) | Time(b)<<shift
		q.nearEnd, q.wheelEnd = h, h
		q.open()
		q.advance()
		return
	}
	panic("sim: event wheel occupancy desynchronized")
}

// peekLive returns the time of the earliest live event, discarding (and
// freeing) any cancelled entries that surface at the head on the way.
func (q *eventQueue) peekLive() (Time, bool) {
	for {
		if !q.ensureNear() {
			return 0, false
		}
		ent := q.near[q.nearPos]
		if q.slots[ent.slot].live() {
			return ent.at, true
		}
		q.nearPos++
		q.freeSlot(ent.slot)
	}
}

// popHead removes the head entry and returns its record. The payload is
// copied out and the slot freed before the caller dispatches, so a handler
// may schedule (and grow the slot table) freely. Call only after a true
// peekLive, which guarantees the head is live.
func (q *eventQueue) popHead() Event {
	ent := q.near[q.nearPos]
	q.nearPos++
	ev := q.slots[ent.slot].ev
	q.freeSlot(ent.slot)
	return ev
}

// forEachPending invokes fn for every still-queued typed record, in slot
// order (not dispatch order). Closures and cancelled slots are skipped.
func (q *eventQueue) forEachPending(fn func(Event)) {
	for i := range q.slots {
		if ev := q.slots[i].ev; ev.Kind != evNone && ev.Kind != evFunc {
			fn(ev)
		}
	}
}
