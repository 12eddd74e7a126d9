package uchan

import (
	"fmt"
	"testing"

	"sud/internal/sim"
)

// Ring semantics that must hold however the rings are stored.

// TestFlushBatchIsSnapshot: the batch a flush delivers is the ring as it
// stood at flush time. A KernelHandler that kills the channel mid-batch
// still sees the rest of that batch, and a downcall it queues rides the
// next flush, not this one.
func TestFlushBatchIsSnapshot(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		f := newFixture()
		var got []uint32
		f.c.KernelHandler = func(m Msg) {
			got = append(got, m.Op)
			if m.Op == 2 {
				f.c.Kill()
			}
		}
		for i := 0; i < 5; i++ {
			if err := f.c.Down(Msg{Op: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		f.c.Flush()
		if fmt.Sprint(got) != "[0 1 2 3 4]" {
			t.Fatalf("delivered %v, want the whole batch", got)
		}
		if err := f.c.Down(Msg{Op: 9}); err != ErrDead {
			t.Fatalf("Down after kill = %v", err)
		}
		f.c.Flush()
		if len(got) != 5 {
			t.Fatalf("a flush after kill delivered %v", got[5:])
		}
	})
	t.Run("down", func(t *testing.T) {
		f := newFixture()
		var got []uint32
		f.c.KernelHandler = func(m Msg) {
			got = append(got, m.Op)
			if m.Op == 1 {
				if err := f.c.Down(Msg{Op: 100}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			if err := f.c.Down(Msg{Op: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		f.c.Flush()
		if fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("first flush delivered %v", got)
		}
		f.c.Flush()
		if fmt.Sprint(got) != "[0 1 2 100]" {
			t.Fatalf("second flush delivered %v", got[3:])
		}
		if st := f.c.Stats(); st.Doorbells != 2 || st.MaxDownBatch != 3 {
			t.Fatalf("stats %+v", st)
		}
	})
	t.Run("multi", func(t *testing.T) {
		f := newMfix(4)
		var got []string
		f.mc.SetKernelHandler(func(q int, m Msg) {
			got = append(got, fmt.Sprintf("%d:%d:%s", q, m.Op, m.Data))
			if m.Op == 1 {
				f.mc.Kill()
			}
		})
		for i := 0; i < 3; i++ {
			if err := f.mc.DownQ(2, Msg{Op: uint32(i), Data: []byte{'a' + byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		f.mc.Flush()
		if fmt.Sprint(got) != "[2:0:a 2:1:b 2:2:c]" {
			t.Fatalf("delivered %v", got)
		}
	})
}

// TestHungUrgentIsNotUrgent: an urgent upcall queued on a hung ring does not
// keep its urgency — when the ring is serviced again it drains as bulk
// traffic, with the short polling window.
func TestHungUrgentIsNotUrgent(t *testing.T) {
	f := newFixture()
	f.c.Hung = true
	if err := f.c.ASendUrgent(Msg{Op: 1}); err != nil {
		t.Fatal(err)
	}
	f.c.Hung = false
	f.c.Poke()
	f.loop.RunFor(WakeLatency)
	if len(f.served) != 1 {
		t.Fatalf("served %d", len(f.served))
	}
	if f.c.lastDrainUrgent {
		t.Fatal("urgent ASend on a hung ring drained as urgent")
	}
	// The same message on a live ring is urgent.
	if err := f.c.ASendUrgent(Msg{Op: 2}); err != nil {
		t.Fatal(err)
	}
	f.loop.Run()
	if !f.c.lastDrainUrgent {
		t.Fatal("urgent ASend on a live ring drained as bulk")
	}
}

// TestRingSlotsBackpressureBothWays: each ring holds exactly RingSlots
// messages; the next send in either direction fails with ErrRingFull and is
// counted in DroppedFull, on a Chan and on one ring of a MultiChan.
func TestRingSlotsBackpressureBothWays(t *testing.T) {
	f := newFixture()
	f.c.Hung = true
	for i := 0; i < RingSlots; i++ {
		if err := f.c.ASend(Msg{}); err != nil {
			t.Fatalf("upcall %d: %v", i, err)
		}
		if err := f.c.Down(Msg{Data: []byte{1}}); err != nil {
			t.Fatalf("downcall %d: %v", i, err)
		}
	}
	if err := f.c.ASend(Msg{}); err != ErrRingFull {
		t.Fatalf("upcall past RingSlots = %v", err)
	}
	if err := f.c.Down(Msg{}); err != ErrRingFull {
		t.Fatalf("downcall past RingSlots = %v", err)
	}
	if st := f.c.Stats(); st.DroppedFull != 2 || st.Upcalls != RingSlots || st.Downcalls != RingSlots {
		t.Fatalf("stats %+v", st)
	}
	f.c.Flush()
	if len(f.down) != RingSlots {
		t.Fatalf("flush delivered %d", len(f.down))
	}
	if err := f.c.Down(Msg{}); err != nil {
		t.Fatalf("downcall after flush: %v", err)
	}

	mf := newMfix(4)
	for i := 0; i < RingSlots; i++ {
		if err := mf.mc.DownQ(3, Msg{Op: 1}); err != nil {
			t.Fatalf("DownQ %d: %v", i, err)
		}
	}
	if err := mf.mc.DownQ(3, Msg{Op: 1}); err != ErrRingFull {
		t.Fatalf("DownQ past RingSlots = %v", err)
	}
	if err := mf.mc.DownQ(2, Msg{Op: 1}); err != nil {
		t.Fatalf("sibling DownQ: %v", err)
	}
	if mf.mc.QueueStats(3).DroppedFull != 1 || mf.mc.QueueStats(2).DroppedFull != 0 {
		t.Fatal("downcall backpressure not per ring")
	}
}

// TestKillDropsBothRings: Kill empties the upcall and the downcall ring;
// nothing queued before it is ever serviced or delivered.
func TestKillDropsBothRings(t *testing.T) {
	for _, queues := range []int{1, 4} {
		t.Run(fmt.Sprintf("Q%d", queues), func(t *testing.T) {
			f := newMfix(queues)
			for q := 0; q < queues; q++ {
				if err := f.mc.ASend(q, Msg{Op: 1}); err != nil {
					t.Fatal(err)
				}
				if err := f.mc.DownQ(q, Msg{Op: 2}); err != nil {
					t.Fatal(err)
				}
			}
			f.mc.Kill()
			if f.mc.Pending() != 0 {
				t.Fatalf("pending = %d after kill", f.mc.Pending())
			}
			f.mc.Flush()
			f.loop.Run()
			if len(f.served) != 0 || len(f.down) != 0 {
				t.Fatalf("served %d upcalls and %d downcalls after kill", len(f.served), len(f.down))
			}
		})
	}
}

// kernelLoop is a fixture for allocation gates: the driver answers every
// upcall with one downcall carrying a small payload, and the kernel handler
// only counts, so the cycle allocates nothing of its own.
type kernelLoop struct {
	loop      *sim.Loop
	delivered int
}

// TestAsyncCycleDoesNotAllocate gates the steady-state transport: an ASend,
// the drain it triggers, the driver's Down and the flush that delivers it
// allocate nothing, on a Chan and on a 4-queue MultiChan.
func TestAsyncCycleDoesNotAllocate(t *testing.T) {
	t.Run("Chan", func(t *testing.T) {
		k, c := newCycleChan()
		cycle := func() {
			if err := c.ASend(Msg{Op: 1}); err != nil {
				t.Fatal(err)
			}
			k.loop.Run()
		}
		cycle()
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("%v allocations per async cycle", allocs)
		}
		if k.delivered != 202 {
			t.Fatalf("delivered %d downcalls", k.delivered)
		}
	})
	t.Run("MultiChan", func(t *testing.T) {
		k, mc := newCycleMulti(4)
		cycle := func() {
			for q := 0; q < 4; q++ {
				if err := mc.ASend(q, Msg{Op: 1}); err != nil {
					t.Fatal(err)
				}
			}
			k.loop.Run()
		}
		cycle()
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("%v allocations per async cycle", allocs)
		}
		if k.delivered != 4*202 || mc.BadSlots != 0 {
			t.Fatalf("delivered %d downcalls, %d bad slots", k.delivered, mc.BadSlots)
		}
	})
}

var cyclePayload = []byte("completion batch bytes, 32 long.")

func newCycleChan() (*kernelLoop, *Chan) {
	k := &kernelLoop{loop: sim.NewLoop()}
	stats := sim.NewCPUStats(2)
	c := New(k.loop, stats.Account("kernel"), stats.Account("driver"))
	c.DriverHandler = func(m Msg) (Msg, bool) {
		_ = c.Down(Msg{Op: 2, Data: cyclePayload})
		return Msg{Seq: m.Seq}, true
	}
	c.KernelHandler = func(m Msg) {
		if len(m.Data) == len(cyclePayload) {
			k.delivered++
		}
	}
	return k, c
}

func newCycleMulti(queues int) (*kernelLoop, *MultiChan) {
	k := &kernelLoop{loop: sim.NewLoop()}
	stats := sim.NewCPUStats(queues + 1)
	mc := NewMulti(k.loop, stats.Account("kernel"), stats.QueueAccounts("driver", queues))
	mc.SetDriverHandler(func(q int, m Msg) (Msg, bool) {
		_ = mc.DownQ(q, Msg{Op: 2, Args: [6]uint64{uint64(q)}, Data: cyclePayload})
		return Msg{Seq: m.Seq}, true
	})
	mc.SetKernelHandler(func(q int, m Msg) {
		if m.Args[0] == uint64(q) && len(m.Data) == len(cyclePayload) {
			k.delivered++
		}
	})
	return k, mc
}

// BenchmarkChanAsyncCycle is one upcall → drain → downcall → flush round on
// a single ring (host cost of the transport's steady state).
func BenchmarkChanAsyncCycle(b *testing.B) {
	k, c := newCycleChan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.ASend(Msg{Op: 1})
		k.loop.Run()
	}
}

// BenchmarkMultiChanDownQ is one framed downcall per op on a 4-queue
// channel: slot encode, flush, landing decode and dispatch.
func BenchmarkMultiChanDownQ(b *testing.B) {
	k, mc := newCycleMulti(4)
	mc.SetDriverHandler(func(int, Msg) (Msg, bool) { return Msg{}, true })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := i & 3
		_ = mc.DownQ(q, Msg{Op: 2, Args: [6]uint64{uint64(q)}, Data: cyclePayload})
		mc.Queue(q).Flush()
	}
	if k.delivered != b.N {
		b.Fatalf("delivered %d of %d", k.delivered, b.N)
	}
}
