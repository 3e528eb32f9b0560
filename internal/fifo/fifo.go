// Package fifo provides the one FIFO the simulator's queues share: device
// request queues, throttled fault admissions, bytes on the wire, message
// callbacks and migration push items.
//
// A queue keeps its live elements in one buffer, oldest first, and a pop
// advances a head index. Consumers call Compact after popping: once the
// popped prefix outweighs the live elements, they move back to the front,
// so each element is copied O(1) times on average and the queue touches
// only about twice its current depth of memory, however deep it once was.
// That locality matters: a migration stream queues a whole send window of
// records in one phase and a few hundred pages in the next, and a ring
// buffer that grew for the first would keep cycling through all of its
// capacity in the second.
//
// A full buffer doubles, so a queue whose depth is bounded by the model
// settles at one buffer of a few times that depth, where append's 1.25×
// growth would allocate several times its peak on the way up. Push, Pop
// and Compact inline at their call sites, as the hand-written queues they
// replace did.
package fifo

// minCap is the capacity of a queue's first buffer.
const minCap = 16

// Queue is a FIFO of T. The zero value is an empty queue with no storage.
// A popped slot is zeroed, so the queue does not keep a dead element's
// pointers alive; only the slots a compaction vacated may still hold
// copies of elements that were live when it ran, until they are
// overwritten or Reset clears them.
type Queue[T any] struct {
	buf  []T // buf[head:] are the live elements, oldest first
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Cap returns the capacity of the queue's buffer.
func (q *Queue[T]) Cap() int { return cap(q.buf) }

// Push appends v at the tail. A full buffer is compacted when its popped
// prefix is at least as long as the live elements, and doubled otherwise.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) {
		q.makeRoom()
	}
	q.buf = append(q.buf, v)
}

func (q *Queue[T]) makeRoom() {
	if q.head > 0 && q.head >= len(q.buf)-q.head {
		q.compact()
		return
	}
	size := 2 * cap(q.buf)
	if size == 0 {
		size = minCap
	}
	buf := make([]T, len(q.buf)-q.head, size)
	copy(buf, q.buf[q.head:])
	q.buf, q.head = buf, 0
}

// Front returns the oldest element in place. The queue must not be empty.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Pop removes and returns the oldest element. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	return v
}

// Compact moves the live elements to the front of the buffer once the
// popped prefix is at least as long as they are. Consumers call it after
// popping, so that a queue touches only about twice its current depth of
// memory, however deep it once was.
func (q *Queue[T]) Compact() {
	if q.head > 0 && q.head >= len(q.buf)-q.head {
		q.compact()
	}
}

func (q *Queue[T]) compact() {
	q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
}

// Reset empties the queue and zeroes its whole buffer, which it keeps.
func (q *Queue[T]) Reset() {
	clear(q.buf[:cap(q.buf)])
	q.buf, q.head = q.buf[:0], 0
}
