package sim

import (
	"math/bits"
	"slices"
)

// This file implements the engine's tiered event queue. The previous engine
// kept every pending event in one binary heap and tracked cancellations in a
// map keyed by sequence number, which put a heap sift plus a map probe on the
// dispatch path of every single event — and leaked a map entry for every
// cancellation of an already-fired event. The tiered queue replaces both:
//
//   - tier 1 ("near"): a sorted run of the very next events, consumed front
//     to back; pops are O(1), inserts into the run are a binary search plus
//     a short memmove (rare: only zero/short-delay events land here).
//   - tier 2 ("wheel"): a 256-bucket timing wheel, 2^16 ps (~65.5 ns) per
//     bucket, ~16.8 µs horizon. Scheduling into the wheel is an O(1) append;
//     a bucket is sorted by (time, seq) once, when the wheel cursor reaches
//     it, and becomes the next near run. An occupancy bitmap makes finding
//     the next non-empty bucket a couple of trailing-zero counts.
//   - tier 3 ("far"): a 4-ary min-heap for events beyond the wheel horizon
//     (timers, mostly). 4-ary halves the tree depth of a binary heap and
//     keeps sibling keys in one cache line. When the wheel drains, the next
//     epoch's window is scattered from the heap into the buckets.
//
// Cancellation is O(1) and allocation-free: every queued event owns a slot
// in a generation-tagged slot table, and an EventID is (slot, generation).
// Cancel clears the slot's record (also releasing its references to the GC
// immediately); the queue entry itself dies lazily when it surfaces at the
// head. A stale EventID — already fired, already cancelled, or from another
// engine — fails the generation check and is a true no-op: nothing is
// inserted anywhere, so cancel-after-fire traffic (TCP retransmission
// timers) no longer grows any structure.
//
// Determinism: dispatch order is exactly ascending (time, schedule-seq),
// the same total order the heap engine produced, which the randomized
// cross-check in queue_test.go asserts against a naive reference queue.
const (
	wheelGranularityBits = 16 // 2^16 ps ≈ 65.5 ns per bucket
	wheelBuckets         = 256
	wheelMask            = wheelBuckets - 1
	granMask             = Time(1)<<wheelGranularityBits - 1
	wheelSpan            = Time(wheelBuckets) << wheelGranularityBits

	// maxSchedulable bounds event times so wheel-epoch arithmetic can never
	// overflow: Never minus one full wheel span (≈ 106 days of simulated
	// time). Scheduling at or beyond it panics in Engine.At.
	maxSchedulable = Never - wheelSpan

	// bucketSeedCap is the capacity given to a bucket on its first-ever
	// append, skipping the 1→2→4→8 growth ladder so queue warm-up costs one
	// allocation per touched bucket instead of log2(occupancy).
	bucketSeedCap = 8
)

// entry is one queued event reference: 24 bytes, no pointers, so sorting and
// sifting entries never traffics in closures and the near/bucket/heap arrays
// are invisible to the garbage collector.
type entry struct {
	at   Time
	seq  uint64 // tie-break: schedule order, makes execution deterministic
	slot uint32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entryCompare is the slices.SortFunc form of entryLess.
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
// tenant. The queue's tier arrays never hold payloads — only 24-byte entry
// references — so they sort and sift pointer-free.
type slotRec struct {
	gen uint32
	ev  Event
}

// live reports whether the slot still holds a dispatchable payload.
func (r *slotRec) live() bool { return r.ev.Kind != evNone }

// eventQueue is the tiered priority queue. The zero value is ready to use:
// with no epoch open (wheelEnd == 0), every insert lands in the far heap and
// the first pop opens an epoch at the earliest event.
type eventQueue struct {
	// tier 1: the sorted run currently being consumed. Entries in
	// near[nearPos:] are exactly the queued events with at < nearEnd.
	near    []entry
	nearPos int
	nearEnd Time // bucket-aligned; lower edge of the next undrained bucket

	// tier 2: timing wheel over [nearEnd, wheelEnd).
	buckets  [wheelBuckets][]entry
	occ      [wheelBuckets / 64]uint64
	inWheel  int
	wheelEnd Time // exclusive end of the current epoch's window

	// tier 3: 4-ary min-heap of events with at >= wheelEnd.
	far []entry

	// slab carves bucketSeedCap-sized initial backing arrays for buckets, so
	// warming the whole wheel costs one allocation, not one per bucket.
	slab []entry

	// generation-tagged slot table + free list.
	slots []slotRec
	free  []uint32
}

// size reports the number of queued entries, including cancelled-but-unpopped
// ones (the same contract the heap engine's Pending had). A slot is allocated
// exactly while its entry is queued, so this is O(1).
func (q *eventQueue) size() int { return len(q.slots) - len(q.free) }

func (q *eventQueue) allocSlot() uint32 {
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		return s
	}
	q.slots = append(q.slots, slotRec{})
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
		q.bucketAppend(int(ent.at>>wheelGranularityBits)&wheelMask, ent)
	default:
		q.farPush(ent)
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

// bucketAppend places a wheel entry, marking occupancy and seeding capacity
// on a bucket's first-ever use. Steady state reuses the capacity that
// circulates between buckets and the near run.
func (q *eventQueue) bucketAppend(b int, ent entry) {
	if len(q.buckets[b]) == 0 {
		q.occ[b>>6] |= 1 << uint(b&63)
		if cap(q.buckets[b]) == 0 {
			if len(q.slab) < bucketSeedCap {
				q.slab = make([]entry, wheelBuckets*bucketSeedCap)
			}
			q.buckets[b] = q.slab[:0:bucketSeedCap]
			q.slab = q.slab[bucketSeedCap:]
		}
	}
	q.buckets[b] = append(q.buckets[b], ent)
	q.inWheel++
}

// cancel marks the identified event dead if it is still queued. It returns
// whether the ID was live. Stale or zero IDs are no-ops with no side effects.
// The payload is released immediately and the queue entry dies lazily when it
// reaches the head.
func (q *eventQueue) cancel(id EventID) bool {
	if id.slot == 0 {
		return false
	}
	s := id.slot - 1
	if int(s) >= len(q.slots) || q.slots[s].gen != id.gen || !q.slots[s].live() {
		return false
	}
	q.slots[s].ev = Event{}
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

// ensureNear makes near[nearPos] the global head, draining the wheel and
// refilling it from the far heap as needed. It reports whether any entry is
// queued at all.
func (q *eventQueue) ensureNear() bool {
	for q.nearPos == len(q.near) {
		if q.inWheel > 0 {
			q.drainNextBucket()
			return true
		}
		if len(q.far) == 0 {
			return false
		}
		q.startEpoch()
	}
	return true
}

// drainNextBucket turns the earliest occupied bucket into the new near run.
// Only called with inWheel > 0.
func (q *eventQueue) drainNextBucket() {
	b := int(q.nearEnd>>wheelGranularityBits) & wheelMask
	idx := q.nextOccupied(b)
	dist := (idx - b) & wheelMask

	// Swap storage: the exhausted near array becomes the bucket's next
	// backing array, so steady state allocates nothing.
	run := q.buckets[idx]
	q.buckets[idx] = q.near[:0]
	q.near = run
	q.nearPos = 0
	q.occ[idx>>6] &^= 1 << uint(idx&63)
	q.inWheel -= len(run)
	q.nearEnd += Time(dist+1) << wheelGranularityBits

	// A bucket holds appends from possibly interleaved schedule orders;
	// one sort per bucket establishes the (time, seq) dispatch order.
	if len(run) > 1 {
		slices.SortFunc(run, entryCompare)
	}
}

// nextOccupied returns the index of the first occupied bucket at or after b
// in circular time order. The caller guarantees inWheel > 0.
func (q *eventQueue) nextOccupied(b int) int {
	w := b >> 6
	word := q.occ[w] &^ (1<<uint(b&63) - 1)
	for i := 0; i <= len(q.occ); i++ {
		if word != 0 {
			return (w << 6) + bits.TrailingZeros64(word)
		}
		w = (w + 1) & (len(q.occ) - 1)
		word = q.occ[w]
	}
	panic("sim: event wheel occupancy desynchronized")
}

// startEpoch opens the next wheel window at the earliest far event and
// scatters every far event inside the window into the buckets. Cost is
// proportional to the entries moved, never to the bucket count: the bitmap
// and buckets are already empty here.
func (q *eventQueue) startEpoch() {
	base := q.far[0].at &^ granMask
	q.nearEnd = base
	q.wheelEnd = base + wheelSpan
	for len(q.far) > 0 && q.far[0].at < q.wheelEnd {
		ent := q.farPop()
		q.bucketAppend(int(ent.at>>wheelGranularityBits)&wheelMask, ent)
	}
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

// --- 4-ary min-heap (tier 3) -----------------------------------------------

func (q *eventQueue) farPush(ent entry) {
	q.far = append(q.far, ent)
	i := len(q.far) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(q.far[i], q.far[p]) {
			break
		}
		q.far[i], q.far[p] = q.far[p], q.far[i]
		i = p
	}
}

func (q *eventQueue) farPop() entry {
	h := q.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.far = h[:n]
	h = q.far
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(h[c], h[min]) {
				min = c
			}
		}
		if !entryLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
