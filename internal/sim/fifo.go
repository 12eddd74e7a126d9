package sim

// FIFO is a first-in first-out queue on a growable ring. A queue cycling at
// a steady depth allocates nothing: the ring grows, doubling, only when a
// push finds it full. Popped slots are zeroed, so the ring keeps no
// references to values that have left it. The zero value is an empty queue.
type FIFO[T any] struct {
	ring    []T // len is zero or a power of two
	head, n int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.ring) {
		ring := make([]T, max(8, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
}

// Pop removes and returns the value at the head. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	var zero T
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// Peek returns the value at the head without removing it. The queue must
// not be empty.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek of an empty FIFO")
	}
	return q.ring[q.head]
}

// Reset empties the queue, keeping its ring.
func (q *FIFO[T]) Reset() {
	clear(q.ring)
	q.head, q.n = 0, 0
}
