package sim

// FIFO is a head-indexed queue: Pop advances the head and the backing array is
// reused, so a steady push/pop flow allocates nothing (a naive q = q[1:]
// strands the popped capacity and re-allocates on every push once the spare
// capacity is consumed). The array is reset when the queue drains, and a Push
// into a full array at least half popped slides the live items to its front,
// so a queue that never drains does not grow either; like insertNear's
// compaction, the half rule keeps the copying to one item per push at most,
// amortized. The zero FIFO is empty and ready to use.
type FIFO[T any] struct {
	q    []T
	head int
}

// FIFOOn returns an empty FIFO whose first backing array is buf's, so a
// lightly loaded queue stored next to its buffer never allocates.
func FIFOOn[T any](buf []T) FIFO[T] { return FIFO[T]{q: buf[:0]} }

// Push appends x.
func (f *FIFO[T]) Push(x T) {
	if len(f.q) == cap(f.q) && 2*f.head >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, x)
}

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.q) - f.head }

// Live returns the queued items, oldest first, valid until the next Push or
// Pop.
func (f *FIFO[T]) Live() []T { return f.q[f.head:] }

// Head returns the oldest item in place, valid until the next Push or Pop;
// the queue must not be empty.
func (f *FIFO[T]) Head() *T { return &f.q[f.head] }

// Pop removes and returns the oldest item; the queue must not be empty.
func (f *FIFO[T]) Pop() T {
	x := f.q[f.head]
	f.q[f.head] = *new(T)
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return x
}
