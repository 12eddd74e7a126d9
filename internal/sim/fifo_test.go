package sim

import "testing"

// TestFIFOOrderAndGrowth: values leave in arrival order across ring growth
// and wrap-around, popped slots are cleared, and a queue cycling at a
// steady depth stops allocating once its ring has grown.
func TestFIFOOrderAndGrowth(t *testing.T) {
	var q FIFO[*int]
	next, want := 0, 0
	rnd := NewRand(3)
	for op := 0; op < 20000; op++ {
		if q.Len() == 0 || rnd.Intn(2) == 0 {
			v := next
			next++
			q.Push(&v)
		} else {
			if got := *q.Pop(); got != want {
				t.Fatalf("op %d: popped %d, want %d", op, got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("op %d: Len %d, want %d", op, q.Len(), next-want)
		}
	}
	live := 0
	for _, p := range q.ring {
		if p != nil {
			live++
		}
	}
	if live != q.Len() {
		t.Fatalf("ring holds %d references for %d queued values", live, q.Len())
	}
	q.Reset()
	if q.Len() != 0 || q.ring[0] != nil {
		t.Fatal("Reset left values queued")
	}
	v := 1
	cycle := func() {
		for i := 0; i < 100; i++ {
			q.Push(&v)
		}
		for i := 0; i < 100; i++ {
			q.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a steady-depth FIFO allocates %.1f times per cycle, want 0", allocs)
	}
}
