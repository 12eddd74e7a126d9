package sim

import "fmt"

// Event is a handle to a scheduled callback, returned by Loop.At and
// Loop.After. It is a small value: copy it freely. The zero Event refers to
// nothing and reads as cancelled. A handle outlives its event harmlessly:
// once the event fires or is cancelled the loop recycles the slot, and the
// handle's generation no longer matches, so it can neither cancel nor
// observe whatever event reuses the slot next.
type Event struct {
	n   *eventNode
	gen uint64
}

// Cancelled reports whether the event was cancelled or already dispatched
// (an event reads as dispatched from the moment its callback starts).
func (e Event) Cancelled() bool { return e.n == nil || e.n.gen != e.gen }

// eventNode is a queue slot. Nodes are recycled through the loop's free
// list; gen advances every time a node leaves the queue, which is what
// invalidates outstanding handles to it.
type eventNode struct {
	fn  func()
	gen uint64
	pos int // index in Loop.heap while queued
}

// heapEntry is one queued event: its (at, seq) sort key sits inline so
// sifting compares keys without chasing pointers.
type heapEntry struct {
	at  Time
	seq uint64
	n   *eventNode
}

func (a *heapEntry) less(b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Loop is the discrete event loop that drives an entire simulated machine.
// It is single-threaded by design: determinism matters more than parallelism
// for reproducing microsecond-scale measurements.
//
// Events fire in (timestamp, scheduling order) order, so the simulation is
// fully deterministic. The queue is a 4-ary min-heap over that key; nodes
// are pooled, so scheduling in steady state allocates nothing.
type Loop struct {
	Clock Clock

	heap    []heapEntry
	free    []*eventNode
	nextSeq uint64
	stopped bool

	dispatched uint64
}

// NewLoop returns an empty event loop at time zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.Clock.Now() }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics — it would mean the model lost causality.
func (l *Loop) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: scheduling nil event func")
	}
	if t < l.Clock.Now() {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", t, l.Clock.Now()))
	}
	var n *eventNode
	if k := len(l.free); k > 0 {
		n = l.free[k-1]
		l.free = l.free[:k-1]
	} else {
		n = &eventNode{}
	}
	n.fn = fn
	n.pos = len(l.heap)
	l.heap = append(l.heap, heapEntry{at: t, seq: l.nextSeq, n: n})
	l.nextSeq++
	l.up(n.pos)
	return Event{n: n, gen: n.gen}
}

// After schedules fn to run d nanoseconds from now.
func (l *Loop) After(d Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event with negative delay %d", d))
	}
	return l.At(l.Clock.Now()+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event, or the zero Event, is a harmless no-op.
func (l *Loop) Cancel(e Event) {
	if e.Cancelled() {
		return
	}
	l.remove(e.n.pos)
	l.release(e.n)
}

// Pending reports the number of events waiting to fire.
func (l *Loop) Pending() int { return len(l.heap) }

// Dispatched reports how many events have fired since the loop was created.
func (l *Loop) Dispatched() uint64 { return l.dispatched }

// Stop makes Run/RunUntil return after the current event completes.
func (l *Loop) Stop() { l.stopped = true }

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false if the queue was empty.
func (l *Loop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	top := l.heap[0]
	l.remove(0)
	fn := top.n.fn
	l.release(top.n)
	l.Clock.advanceTo(top.at)
	l.dispatched++
	fn()
	return true
}

// Run dispatches events until the queue is empty or Stop is called.
func (l *Loop) Run() {
	l.stopped = false
	for !l.stopped && l.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then advances the
// clock to the deadline (if it is not already past it). Events scheduled
// beyond the deadline remain queued.
func (l *Loop) RunUntil(deadline Time) {
	l.stopped = false
	for !l.stopped {
		if len(l.heap) == 0 || l.heap[0].at > deadline {
			break
		}
		l.Step()
	}
	if l.Clock.Now() < deadline {
		l.Clock.advanceTo(deadline)
	}
}

// RunFor runs the loop for d nanoseconds of virtual time from now.
func (l *Loop) RunFor(d Duration) { l.RunUntil(l.Clock.Now() + d) }

// release retires a node that left the queue: its handles go stale and it
// returns to the free list.
func (l *Loop) release(n *eventNode) {
	n.fn = nil
	n.gen++
	l.free = append(l.free, n)
}

// remove deletes heap entry i, keeping the heap ordered.
func (l *Loop) remove(i int) {
	last := len(l.heap) - 1
	l.heap[i] = l.heap[last]
	l.heap[i].n.pos = i
	l.heap[last] = heapEntry{}
	l.heap = l.heap[:last]
	if i < last && !l.down(i) {
		l.up(i)
	}
}

// up sifts entry i toward the root.
func (l *Loop) up(i int) {
	h := l.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].n.pos = i
		i = p
	}
	h[i] = e
	e.n.pos = i
}

// down sifts entry i toward the leaves, reporting whether it moved.
func (l *Loop) down(i0 int) bool {
	h := l.heap
	n := len(h)
	i := i0
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].less(&h[m]) {
				m = j
			}
		}
		if !h[m].less(&e) {
			break
		}
		h[i] = h[m]
		h[i].n.pos = i
		i = m
	}
	h[i] = e
	e.n.pos = i
	return i > i0
}
