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
//     Buckets are intrusive doubly-linked chains threaded through the event
//     slots themselves, so an upper level costs 1 KB of heads and holding an
//     event there costs nothing beyond its slot.
//
// What rolls: each time the cursor moves, wheelEnd is advanced span by span
// until it is a full span ahead again, and each step drops the level-1 bucket
// the window now covers into level 0. What cascades: whenever wheelEnd reaches
// the start of a bucket of level 2 or above, that bucket is emptied, highest
// level first, and its events re-filed further down; an event moves down at
// most once per level. When level 0 runs empty the window jumps straight to
// the earliest occupied upper bucket.
//
// Slots: every queued event owns a generation-tagged slot, and an EventID is
// (slot, generation). Slots live in pages that never move: the first holds 32
// records, each next one twice as many, up to 4,096 (320 KB) for every page
// from the eighth on. Growing the queue allocates one page and copies nothing,
// so a record is written once, when its event is scheduled, and dispatched in
// place. A record waiting behind an earlier one of its lane (lane.go) is a
// 24-byte node in node pages of the same kind until that one fires.
//
// Cancellation is O(1) and allocation-free. Cancel clears the slot's record
// (releasing its references to the GC). An event still in an upper level is
// unlinked and its slot freed on the spot, so arm-then-cancel timers (TCP's
// RTO) never accumulate; one already in level 0 or the near run dies lazily
// when it surfaces at the head. A stale EventID — already fired, already
// cancelled, or from another engine — fails the generation check and touches
// nothing.
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
	// costs one allocation per slabBuckets buckets instead of log2(occupancy)
	// per bucket. The slab is carved a group at a time, on first use, so an
	// engine whose events fill a few buckets (a quiet partition) never zeroes
	// the whole level's 96 KB.
	bucketSeedCap = 8
	slabBuckets   = nearBuckets / 4

	// A slot number is page<<pageBits | offset. Page n holds
	// pageSlots>>(pageRamp-n) records while n < pageRamp, so the small early
	// pages leave numbers unused; every later page holds pageSlots.
	pageBits  = 12
	pageSlots = 1 << pageBits
	pageMask  = pageSlots - 1
	pageRamp  = 7
)

// entry is one queued event reference in the near run or a level-0 bucket:
// 24 bytes, no pointers, so sorting entries never traffics in closures and
// the near/bucket arrays are invisible to the garbage collector.
type entry struct {
	at   Time
	seq  uint64 // tie-break: schedule order, makes execution deterministic
	slot uint32
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

// slotRec is a generation-tagged slot holding one event record; ev.Kind ==
// evNone marks a cancelled or free slot. gen increments every time the slot
// is released (a dispatched one's before its handler runs), so stale EventIDs
// can never cancel the slot's next tenant. While the event is chained in
// bucket b of upper[k], home is 1 + k<<levelBits + b and at, seq, next and
// prev (1-based slot numbers, 0 = none) are its chain links; home is 0
// otherwise. A free slot's next links the free list.
type slotRec struct {
	gen, home  uint32
	ev         Event
	at         Time
	seq        uint64
	next, prev uint32
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

	// Upper levels hold the events with at >= wheelEnd, chained through
	// their slots.
	upper   [upperLevels]upperLevel
	inUpper int

	// slab carves bucketSeedCap-sized initial backing arrays for level-0
	// buckets, so warming the level costs four allocations, not one per
	// bucket.
	slab []entry

	// The slot pages, the next never-used slot number, the free list's head
	// (a 1-based slot number) and the number of queued entries.
	pages  [][]slotRec
	fresh  uint32
	free   uint32
	queued int

	// Lane node pages, numbered like slot pages, and nodes on lanes.
	nodes     [][]laneNode
	nodeFresh uint32
	nodeFree  uint32
	inLanes   int
}

// size reports the number of pending records: queued entries, including
// cancelled ones that have not surfaced yet, and lane nodes.
func (q *eventQueue) size() int { return q.queued + q.inLanes }

// rec returns slot s's record. Pages never move, so the pointer stays valid
// however the queue grows.
func (q *eventQueue) rec(s uint32) *slotRec { return &q.pages[s>>pageBits][s&pageMask] }

// freshSlot puts the next never-used slot on the empty free list, appending a
// page when the last is full; nothing already queued moves.
func (q *eventQueue) freshSlot() {
	if p := int(q.fresh >> pageBits); p == len(q.pages) || int(q.fresh&pageMask) == len(q.pages[p]) {
		n := len(q.pages)
		q.fresh = uint32(n) << pageBits
		q.pages = append(q.pages, make([]slotRec, pageSlots>>max(pageRamp-n, 0)))
	}
	q.fresh++
	q.free = q.fresh // a never-used record's next is 0: the list ends there
}

// freeSlot releases slot s, holding rec, of a queued event that will never
// run.
func (q *eventQueue) freeSlot(s uint32, rec *slotRec) {
	rec.gen++
	q.queued--
	q.release(s, rec)
}

// release clears a slot's record, dropping its references for the GC, and
// pushes the slot on the free list.
func (q *eventQueue) release(s uint32, rec *slotRec) {
	rec.ev = Event{}
	rec.next = q.free
	q.free = s + 1
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

// bucketAppend places a level-0 entry, marking occupancy and seeding capacity
// on a bucket's first-ever use. Steady state appends into capacity the bucket
// already owns.
func (q *eventQueue) bucketAppend(b int, ent entry) {
	if len(q.buckets[b]) == 0 {
		q.occ[b>>6] |= 1 << uint(b&63)
		if cap(q.buckets[b]) == 0 {
			q.seedBucket(b)
		}
	}
	q.buckets[b] = append(q.buckets[b], ent)
	q.inWheel++
}

// seedBucket gives bucket b its initial backing array, carved from the slab.
func (q *eventQueue) seedBucket(b int) {
	if len(q.slab) < bucketSeedCap {
		q.slab = make([]entry, slabBuckets*bucketSeedCap)
	}
	q.buckets[b] = q.slab[:0:bucketSeedCap]
	q.slab = q.slab[bucketSeedCap:]
}

// upperPush chains an entry with at >= wheelEnd into the level of the highest
// byte in which at differs from wheelEnd: it shares that level's parent
// interval with the window's end, so the bucket index cannot alias.
func (q *eventQueue) upperPush(ent entry) {
	k := (bits.Len64(uint64(ent.at^q.wheelEnd)>>(spanBits+levelBits)) + levelBits - 1) / levelBits
	b := int(ent.at>>(spanBits+levelBits*k)) & wheelMask
	lv := &q.upper[k]
	next := lv.head[b]
	if next == 0 {
		lv.occ[b>>6] |= 1 << uint(b&63)
	} else {
		q.rec(next - 1).prev = ent.slot + 1
	}
	rec := q.rec(ent.slot)
	rec.at, rec.seq, rec.next, rec.prev = ent.at, ent.seq, next, 0
	rec.home = uint32(1 + k<<levelBits + b)
	lv.head[b] = ent.slot + 1
	q.inUpper++
}

// unlink removes a slot's record from its upper-level chain.
func (q *eventQueue) unlink(rec *slotRec) {
	home := rec.home - 1
	rec.home = 0
	q.inUpper--
	if rec.next != 0 {
		q.rec(rec.next - 1).prev = rec.prev
	}
	if rec.prev != 0 {
		q.rec(rec.prev - 1).next = rec.next
		return
	}
	lv, b := &q.upper[home>>levelBits], home&wheelMask
	if lv.head[b] = rec.next; rec.next == 0 {
		lv.occ[b>>6] &^= 1 << (b & 63)
	}
}

// cancel marks the identified event dead if it is still queued. It returns
// whether the ID was live. Stale or zero IDs are no-ops with no side effects.
// The payload is released immediately; the slot is freed here if the event
// waits in an upper level, and when its entry reaches the head otherwise.
func (q *eventQueue) cancel(id EventID) bool {
	s := id.slot - 1 // the zero ID wraps to a page that cannot exist
	if p := int(s >> pageBits); p >= len(q.pages) || int(s&pageMask) >= len(q.pages[p]) {
		return false
	}
	rec := q.rec(s)
	if rec.gen != id.gen || !rec.live() {
		return false
	}
	if rec.home != 0 {
		q.unlink(rec)
		q.freeSlot(s, rec)
	} else {
		rec.ev = Event{}
	}
	return true
}

// insertNear splices an entry into the live tail of the sorted run. A new
// entry carries the largest seq, but a lane node queued by LaneFired keeps
// its older one, so the insertion point is found on (time, seq).
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
	if n := len(q.near); n == q.nearPos || entryCompare(q.near[n-1], ent) < 0 {
		q.near = append(q.near, ent) // common case: after the tail
		return
	}
	lo, hi := q.nearPos, len(q.near)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryCompare(q.near[mid], ent) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.near = append(q.near, entry{})
	copy(q.near[lo+1:], q.near[lo:])
	q.near[lo] = ent
}

// drainNextBucket turns the earliest occupied bucket into the new near run
// and rolls the window after the cursor. Only called with inWheel > 0 and the
// near run consumed.
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
		if len(run) == 1 { // most drains: one element, not a memmove call
			ent := run[0]
			run = q.near[:1]
			run[0] = ent
		} else {
			run = append(q.near[:0], run...)
		}
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
		rec := q.rec(s - 1)
		next := rec.next
		rec.home = 0
		q.inUpper--
		q.place(entry{at: rec.at, seq: rec.seq, slot: s - 1})
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

// head returns the earliest live event's slot, record and time, discarding
// (and freeing) any cancelled entries that surface on the way, draining level
// 0 and jumping to the upper levels as needed; ok is false if nothing live is
// queued. The entry stays at near[nearPos] for Engine.dispatch to pop.
func (q *eventQueue) head() (s uint32, rec *slotRec, at Time, ok bool) {
	for {
		if q.nearPos == len(q.near) {
			if q.inWheel > 0 {
				q.drainNextBucket()
			} else if q.inUpper > 0 {
				q.jump()
				continue
			} else {
				return 0, nil, 0, false
			}
		}
		ent := &q.near[q.nearPos]
		if rec = q.rec(ent.slot); rec.live() {
			return ent.slot, rec, ent.at, true
		}
		q.nearPos++
		q.freeSlot(ent.slot, rec)
	}
}

// forEachPending invokes fn for every still-queued typed record, in slot
// order (not dispatch order). Closures, timers and cancelled slots are skipped.
func (q *eventQueue) forEachPending(fn func(Event)) {
	for _, page := range q.pages {
		for i := range page {
			if ev := page[i].ev; ev.Kind != evNone && ev.Kind < evFunc {
				fn(ev)
			}
		}
	}
}
