package ethlink

import (
	"testing"

	"sud/internal/sim"
)

type sink struct {
	frames [][]byte
	at     []sim.Time
	loop   *sim.Loop
}

// LinkDeliver keeps a copy: the link lends the frame for the call only.
func (s *sink) LinkDeliver(f []byte) {
	s.frames = append(s.frames, append([]byte(nil), f...))
	s.at = append(s.at, s.loop.Now())
}

func pair(loop *sim.Loop, prop sim.Duration) (*Link, *sink, *sink) {
	l := NewGigabit(loop, prop)
	a, b := &sink{loop: loop}, &sink{loop: loop}
	l.Connect(a, b)
	return l, a, b
}

func TestSerializationDelay(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 0)
	// A 1514-byte frame: (1514+24)*8 = 12304 bits at 1 Gb/s = 12304 ns.
	if d := l.SerializationDelay(1514); d != 12304 {
		t.Fatalf("delay = %v, want 12304ns", d)
	}
	// Runt frames are padded to the 60-byte minimum.
	if d := l.SerializationDelay(10); d != l.SerializationDelay(60) {
		t.Fatal("runt frame not padded to minimum")
	}
}

func TestDeliveryAndTiming(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 500)
	frame := make([]byte, 1514)
	frame[0] = 0xAB
	if err := l.Send(0, frame); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(b.frames) != 1 || b.frames[0][0] != 0xAB {
		t.Fatalf("delivered %d frames", len(b.frames))
	}
	if b.at[0] != 12304+500 {
		t.Fatalf("delivered at %v, want 12804ns", b.at[0])
	}
}

func TestFrameIsCopied(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	frame := make([]byte, 64)
	frame[5] = 1
	if err := l.Send(0, frame); err != nil {
		t.Fatal(err)
	}
	frame[5] = 99 // sender reuses its buffer
	loop.Run()
	if b.frames[0][5] != 1 {
		t.Fatal("link did not copy the frame at send time")
	}
}

// borrower keeps the slices it is lent, breaking the LinkDeliver contract.
type borrower struct{ frames [][]byte }

func (b *borrower) LinkDeliver(f []byte) { b.frames = append(b.frames, f) }

// TestDeliveredFrameIsBorrowed: LinkDeliver lends the frame for the call.
// After a second frame crosses the link, a receiver's kept copy of the first
// is unchanged, while a receiver that kept the lent slice itself sees the
// wire buffer reused.
func TestDeliveredFrameIsBorrowed(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 0)
	keeper, kept := &sink{loop: loop}, &borrower{}
	l.Connect(kept, keeper)
	for i, fill := range []byte{0x11, 0x22} {
		f := make([]byte, 64)
		for j := range f {
			f[j] = fill
		}
		if err := l.Send(0, f); err != nil {
			t.Fatal(err)
		}
		if err := l.Send(1, f); err != nil {
			t.Fatal(err)
		}
		loop.Run()
		if len(keeper.frames) != i+1 || len(kept.frames) != i+1 {
			t.Fatalf("delivered %d and %d frames", len(keeper.frames), len(kept.frames))
		}
	}
	if keeper.frames[0][0] != 0x11 || keeper.frames[1][0] != 0x22 {
		t.Fatalf("kept copies changed: %#x %#x", keeper.frames[0][0], keeper.frames[1][0])
	}
	if kept.frames[0][0] != 0x22 {
		t.Fatal("the link did not reuse its wire buffer after delivery")
	}
}

func TestBackToBackSerialization(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	f := make([]byte, 1514)
	for i := 0; i < 3; i++ {
		if err := l.Send(0, f); err != nil {
			t.Fatal(err)
		}
	}
	loop.Run()
	if len(b.frames) != 3 {
		t.Fatalf("delivered %d", len(b.frames))
	}
	// Frames serialize sequentially: 12304, 24608, 36912.
	for i, want := range []sim.Time{12304, 24608, 36912} {
		if b.at[i] != want {
			t.Fatalf("frame %d at %v, want %v", i, b.at[i], want)
		}
	}
}

func TestFullDuplexIndependentPipes(t *testing.T) {
	loop := sim.NewLoop()
	l, a, b := pair(loop, 0)
	f := make([]byte, 1514)
	if err := l.Send(0, f); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(1, f); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	// Both directions complete at the same time: no shared medium.
	if a.at[0] != b.at[0] {
		t.Fatalf("duplex directions interfered: %v vs %v", a.at[0], b.at[0])
	}
}

func TestCarrierDown(t *testing.T) {
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	l.SetCarrier(false)
	if err := l.Send(0, make([]byte, 64)); err == nil {
		t.Fatal("send without carrier succeeded")
	}
	if l.Carrier() {
		t.Fatal("carrier reads up")
	}
	loop.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame delivered without carrier")
	}
	_, _, drops := l.Stats(0)
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	loop := sim.NewLoop()
	l, _, _ := pair(loop, 0)
	if err := l.Send(0, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestQueueLimitDrops(t *testing.T) {
	loop := sim.NewLoop()
	l, _, _ := pair(loop, 0)
	l.QueueLimit = 20 * sim.Microsecond
	f := make([]byte, 1514) // 12.3 µs each
	var errs int
	for i := 0; i < 10; i++ {
		if err := l.Send(0, f); err != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("FIFO never overran")
	}
	frames, _, drops := l.Stats(0)
	if int(frames)+errs != 10 || int(drops) != errs {
		t.Fatalf("frames=%d drops=%d errs=%d", frames, drops, errs)
	}
}

func TestBadSideAndUnconnected(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 0)
	if err := l.Send(2, make([]byte, 64)); err == nil {
		t.Fatal("bad side accepted")
	}
	if err := l.Send(0, make([]byte, 64)); err == nil {
		t.Fatal("send on unconnected link succeeded")
	}
}

func TestGigabitSaturationRate(t *testing.T) {
	// Sanity-check the 941 Mbit/s figure: 1448-byte TCP payload in a
	// 1514-byte frame at line rate.
	loop := sim.NewLoop()
	l, _, b := pair(loop, 0)
	payload := 1448
	frame := make([]byte, HeaderLen+20+32+payload) // eth + IP + TCP w/ options
	n := 0
	for loop.Now() < 10*sim.Millisecond {
		if err := l.Send(0, frame); err == nil {
			n++
		}
		loop.RunFor(l.SerializationDelay(len(frame)))
	}
	elapsed := loop.Now().Seconds()
	mbps := float64(len(b.frames)*payload*8) / elapsed / 1e6
	if mbps < 935 || mbps > 950 {
		t.Fatalf("saturated payload rate = %.1f Mbit/s, want ~941", mbps)
	}
	_ = n
}

// countEnd counts deliveries without keeping frames.
type countEnd struct{ n int }

func (c *countEnd) LinkDeliver([]byte) { c.n++ }

// TestSendDeliverDoesNotAllocate: once the wire's free list and FIFO have
// grown, a frame's send and delivery allocate nothing.
func TestSendDeliverDoesNotAllocate(t *testing.T) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 300)
	end := &countEnd{}
	l.Connect(&countEnd{}, end)
	frame := make([]byte, 64)
	cycle := func() {
		if err := l.Send(0, frame); err != nil {
			t.Fatal(err)
		}
		loop.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per send and delivery", allocs)
	}
}

// BenchmarkSendDeliver is one 64-byte frame across the link: the wire copy,
// the delivery event and the buffer's return to the free list.
func BenchmarkSendDeliver(b *testing.B) {
	loop := sim.NewLoop()
	l := NewGigabit(loop, 300)
	end := &countEnd{}
	l.Connect(&countEnd{}, end)
	frame := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.Send(0, frame)
		loop.Run()
	}
	if end.n != b.N {
		b.Fatalf("delivered %d of %d", end.n, b.N)
	}
}
