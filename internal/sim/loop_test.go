package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * Microsecond)
	if c.Now() != 5000 {
		t.Fatalf("clock at %v, want 5000", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestLoopDispatchOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(30, func() { got = append(got, 3) })
	l.At(10, func() { got = append(got, 1) })
	l.At(20, func() { got = append(got, 2) })
	l.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order %v, want [1 2 3]", got)
	}
	if l.Now() != 30 {
		t.Fatalf("clock at %v after run, want 30", l.Now())
	}
}

func TestLoopTieBreakBySchedulingOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(100, func() { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestLoopEventsScheduledDuringDispatch(t *testing.T) {
	l := NewLoop()
	var fired bool
	l.At(10, func() {
		l.After(5, func() { fired = true })
	})
	l.Run()
	if !fired {
		t.Fatal("nested event did not fire")
	}
	if l.Now() != 15 {
		t.Fatalf("clock at %v, want 15", l.Now())
	}
}

func TestLoopCancel(t *testing.T) {
	l := NewLoop()
	var fired bool
	e := l.At(10, func() { fired = true })
	l.Cancel(e)
	l.Cancel(e)       // double cancel is a no-op
	l.Cancel(Event{}) // the zero handle is a no-op too
	l.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestLoopCancelMiddleOfHeap(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(10, func() { got = append(got, 1) })
	e := l.At(20, func() { got = append(got, 2) })
	l.At(30, func() { got = append(got, 3) })
	l.Cancel(e)
	l.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestLoopRunUntil(t *testing.T) {
	l := NewLoop()
	var count int
	l.At(10, func() { count++ })
	l.At(20, func() { count++ })
	l.At(30, func() { count++ })
	l.RunUntil(20)
	if count != 2 {
		t.Fatalf("fired %d events by t=20, want 2", count)
	}
	if l.Now() != 20 {
		t.Fatalf("clock at %v, want 20", l.Now())
	}
	if l.Pending() != 1 {
		t.Fatalf("%d pending, want 1", l.Pending())
	}
}

func TestLoopRunUntilAdvancesIdleClock(t *testing.T) {
	l := NewLoop()
	l.RunUntil(500)
	if l.Now() != 500 {
		t.Fatalf("idle RunUntil left clock at %v, want 500", l.Now())
	}
}

func TestLoopStop(t *testing.T) {
	l := NewLoop()
	var count int
	l.At(10, func() { count++; l.Stop() })
	l.At(20, func() { count++ })
	l.Run()
	if count != 1 {
		t.Fatalf("fired %d events, want 1 (stopped)", count)
	}
}

func TestLoopPastSchedulingPanics(t *testing.T) {
	l := NewLoop()
	l.At(10, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	l.At(5, func() {})
}

func TestLoopDispatchedCounter(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 7; i++ {
		l.At(Time(i), func() {})
	}
	l.Run()
	if l.Dispatched() != 7 {
		t.Fatalf("Dispatched() = %d, want 7", l.Dispatched())
	}
}

// Property: for any set of non-negative delays, the loop dispatches events in
// non-decreasing timestamp order and ends with the clock at the max.
func TestLoopOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop()
		var last Time = -1
		ok := true
		var max Time
		for _, d := range delays {
			at := Time(d)
			if at > max {
				max = at
			}
			l.At(at, func() {
				if l.Now() < last {
					ok = false
				}
				last = l.Now()
			})
		}
		l.Run()
		if len(delays) > 0 && l.Now() != max {
			return false
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoopStaleHandleAfterRecycle(t *testing.T) {
	l := NewLoop()
	old := l.At(10, func() {})
	l.Run()
	var fired bool
	fresh := l.At(20, func() { fired = true }) // reuses old's node
	if !old.Cancelled() || fresh.Cancelled() {
		t.Fatalf("Cancelled: old %v fresh %v, want true false", old.Cancelled(), fresh.Cancelled())
	}
	l.Cancel(old)
	if l.Pending() != 1 {
		t.Fatalf("stale Cancel removed a newer event: %d pending", l.Pending())
	}
	l.Run()
	if !fired {
		t.Fatal("stale Cancel suppressed a newer event")
	}
}

func TestLoopEventCancelledWhileRunning(t *testing.T) {
	l := NewLoop()
	var self Event
	var during bool
	self = l.At(10, func() { during = self.Cancelled() })
	l.Run()
	if !during {
		t.Fatal("a dispatching event must read as cancelled inside its own callback")
	}
}

// refEvent is one event in the reference model of the queue: a plain
// slice searched for its (at, seq) minimum.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// queueModel drives a Loop and a sorted-slice reference model in lockstep
// and fails on the first divergence.
type queueModel struct {
	t       *testing.T
	l       *Loop
	rnd     *Rand
	now     Time
	seq     uint64
	pending []refEvent
	handles []Event // by id
	live    map[int]bool
	fired   int
}

func (m *queueModel) schedule(at Time, viaAfter bool) {
	id := len(m.handles)
	fn := func() { m.fire(id) }
	var e Event
	if viaAfter {
		e = m.l.After(at-m.l.Now(), fn)
	} else {
		e = m.l.At(at, fn)
	}
	m.handles = append(m.handles, e)
	m.pending = append(m.pending, refEvent{at: at, seq: m.seq, id: id})
	m.seq++
	m.live[id] = true
}

func (m *queueModel) cancel(id int) {
	m.l.Cancel(m.handles[id])
	if m.live[id] {
		delete(m.live, id)
		for i, e := range m.pending {
			if e.id == id {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
	}
}

// next returns the index of the model's earliest pending event.
func (m *queueModel) next() int {
	best := -1
	for i, e := range m.pending {
		if best < 0 || e.at < m.pending[best].at ||
			(e.at == m.pending[best].at && e.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

// fire is every event's callback: it checks the event is the model's
// minimum, then acts on the queue from inside the callback.
func (m *queueModel) fire(id int) {
	i := m.next()
	if i < 0 || m.pending[i].id != id {
		m.t.Fatalf("fired event %d, model expected %v", id, m.pending)
	}
	if m.l.Now() != m.pending[i].at {
		m.t.Fatalf("event %d fired at %v, scheduled for %v", id, m.l.Now(), m.pending[i].at)
	}
	m.now = m.pending[i].at
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	delete(m.live, id)
	m.fired++
	switch m.rnd.Intn(6) {
	case 0: // schedule a follow-up, often at this same instant
		m.schedule(m.now+Time(m.rnd.Intn(3)), m.rnd.Intn(2) == 0)
	case 1: // cancel any handle, possibly stale or our own
		m.cancel(m.rnd.Intn(len(m.handles)))
	case 2: // reschedule: cancel a handle and schedule a replacement
		m.cancel(m.rnd.Intn(len(m.handles)))
		m.schedule(m.now+Time(m.rnd.Intn(20)), false)
	}
}

func (m *queueModel) check() {
	if m.l.Pending() != len(m.pending) {
		m.t.Fatalf("Pending() = %d, model has %d", m.l.Pending(), len(m.pending))
	}
	if m.l.Now() != m.now {
		m.t.Fatalf("Now() = %v, model at %v", m.l.Now(), m.now)
	}
	if m.l.Dispatched() != uint64(m.fired) {
		m.t.Fatalf("Dispatched() = %d, model fired %d", m.l.Dispatched(), m.fired)
	}
	for id, h := range m.handles {
		if h.Cancelled() == m.live[id] {
			m.t.Fatalf("handle %d Cancelled() = %v, model live = %v", id, h.Cancelled(), m.live[id])
		}
	}
}

// Property: under random At/After/Cancel/Step/RunUntil traffic, with ties,
// cancellation and rescheduling from inside callbacks and stale handles to
// recycled nodes, the loop dispatches exactly the reference model's order.
func TestLoopMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		m := &queueModel{t: t, l: NewLoop(), rnd: NewRand(seed), live: map[int]bool{}}
		for op := 0; op < 400; op++ {
			switch r := m.rnd.Intn(10); {
			case r < 4:
				m.schedule(m.now+Time(m.rnd.Intn(30)), r == 0)
			case r < 6:
				if len(m.handles) > 0 {
					m.cancel(m.rnd.Intn(len(m.handles)))
				}
			case r < 8:
				if !m.l.Step() && len(m.pending) != 0 {
					t.Fatalf("seed %d: Step found no event, model has %d", seed, len(m.pending))
				}
			default:
				deadline := m.now + Time(m.rnd.Intn(25))
				m.l.RunUntil(deadline)
				if i := m.next(); i >= 0 && m.pending[i].at <= deadline {
					t.Fatalf("seed %d: RunUntil(%v) left event at %v", seed, deadline, m.pending[i].at)
				}
				m.now = deadline
			}
			m.check()
		}
		m.l.Run()
		if len(m.pending) != 0 {
			t.Fatalf("seed %d: Run left %d model events", seed, len(m.pending))
		}
		m.check()
	}
}

func TestLoopSteadyStateAllocatesNothing(t *testing.T) {
	l := NewLoop()
	fn := func() {}
	for i := 0; i < 64; i++ {
		l.At(Time(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.At(l.Now()+64, fn)
		l.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkLoop measures one steady-state event (Step plus the callback's
// reschedule) with depth events pending and pseudo-random delays.
func BenchmarkLoop(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			l := NewLoop()
			rnd := NewRand(1)
			var fn func()
			fn = func() { l.After(Duration(1+rnd.Intn(1000)), fn) }
			for i := 0; i < depth; i++ {
				l.After(Duration(rnd.Intn(1000)), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step()
			}
		})
	}
}
