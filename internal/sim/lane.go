package sim

import "fmt"

// Lane chains records that carry one payload, such as a thread's receive
// timeouts, so that only the earliest holds a queue slot. Every later one
// waits as a 24-byte node holding the (time, seq) it was scheduled with, and
// is queued under that seq when an earlier one fires: dispatch order stays
// exactly ascending (time, seq). A record earlier than the lane's latest takes
// a slot of its own, so the lane's earliest record is always queued. The
// handler of every record scheduled on a lane must call LaneFired. The zero
// value is an empty lane.
type Lane struct {
	tail   uint32 // 1-based number of the last waiting node, whose next is the first; 0: none
	queued uint32 // the lane's records that hold a queue slot
	last   Time   // the latest record's time, while the lane is not empty
}

// laneNode is a lane record waiting for a slot. Node pages never move, like
// slot pages; a free node's next links the free list.
type laneNode struct {
	at   Time
	seq  uint64
	next uint32
}

// nodeRamp sizes the node pages: page n holds pageSlots>>(nodeRamp-n) nodes
// while n < nodeRamp, so the first page takes 1,024 (24 KB).
const nodeRamp = 2

// node returns node n; like a slot pointer, it stays valid.
func (q *eventQueue) node(n uint32) *laneNode { return &q.nodes[n>>pageBits][n&pageMask] }

// allocNode takes the most recently freed node, or else the next fresh one,
// appending a page when the last is full.
func (q *eventQueue) allocNode() (uint32, *laneNode) {
	q.inLanes++
	if n := q.nodeFree; n != 0 {
		nd := q.node(n - 1)
		q.nodeFree = nd.next
		return n - 1, nd
	}
	if p := int(q.nodeFresh >> pageBits); p == len(q.nodes) || int(q.nodeFresh&pageMask) == len(q.nodes[p]) {
		k := len(q.nodes)
		q.nodeFresh = uint32(k) << pageBits
		q.nodes = append(q.nodes, make([]laneNode, pageSlots>>max(nodeRamp-k, 0)))
	}
	q.nodeFresh++
	return q.nodeFresh - 1, q.node(q.nodeFresh - 1)
}

// LaneAt schedules ev at the absolute time at on lane l, under AtEvent's
// rules and with the seq AtEvent would give it. Lane records cannot be
// cancelled.
func (e *Engine) LaneAt(l *Lane, at Time, ev Event) {
	if l.queued == 0 || at < l.last {
		e.AtEvent(at, ev)
		if l.queued == 0 {
			l.last = at
		}
		l.queued++
		return
	}
	if at > maxSchedulable {
		panic(fmt.Sprintf("sim: event time %d ps is beyond the schedulable horizon", int64(at)))
	}
	e.seq++
	n, nd := e.q.allocNode()
	*nd = laneNode{at: at, seq: e.seq, next: n + 1}
	if l.tail != 0 {
		tail := e.q.node(l.tail - 1)
		nd.next, tail.next = tail.next, n+1
	}
	l.tail, l.last = n+1, at
}

// LaneFired is called by the handler of every record scheduled on l, with
// that record: the lane's earliest waiting node, if any, takes a queue slot
// under its saved time and seq, carrying ev.
func (e *Engine) LaneFired(l *Lane, ev Event) {
	if l.tail == 0 {
		l.queued--
		return
	}
	tail := e.q.node(l.tail - 1)
	n := tail.next - 1
	nd := e.q.node(n)
	at, seq := nd.at, nd.seq
	if tail.next = nd.next; n+1 == l.tail {
		l.tail = 0
	}
	nd.next = e.q.nodeFree
	e.q.nodeFree = n + 1
	e.q.inLanes--
	e.enqueue(at, seq, ev)
}
