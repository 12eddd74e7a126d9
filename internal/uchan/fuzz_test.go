package uchan

import (
	"bytes"
	"testing"
)

// TestSlotRoundTrip pins the framing: every field survives encode→decode.
func TestSlotRoundTrip(t *testing.T) {
	msgs := []struct {
		q int
		m Msg
	}{
		{0, Msg{Op: 1}},
		{3, Msg{Op: 0xFFFF_FFFF, Seq: 42, Args: [6]uint64{1, 2, 3, 4, 5, ^uint64(0)}}},
		{7, Msg{Op: 9, Data: []byte("payload"), urgent: true}},
		{MaxQueues - 1, Msg{Data: bytes.Repeat([]byte{0xA5}, MaxSlotData)}},
	}
	for _, tc := range msgs {
		q, m, err := DecodeSlot(AppendSlot(nil, tc.q, tc.m), nil)
		if err != nil {
			t.Fatalf("decode(%d, %+v): %v", tc.q, tc.m, err)
		}
		if q != tc.q || m.Op != tc.m.Op || m.Seq != tc.m.Seq ||
			m.Args != tc.m.Args || m.urgent != tc.m.urgent ||
			!bytes.Equal(m.Data, tc.m.Data) {
			t.Fatalf("round trip mangled: in (%d, %+v), out (%d, %+v)", tc.q, tc.m, q, m)
		}
	}
}

// TestAppendSlotReusesRoom: encoding into a slot with room appends in place.
func TestAppendSlotReusesRoom(t *testing.T) {
	slot := make([]byte, 0, 256)
	m := Msg{Op: 5, Data: []byte("abc")}
	if allocs := testing.AllocsPerRun(100, func() { slot = AppendSlot(slot[:0], 2, m) }); allocs != 0 {
		t.Fatalf("%v allocations encoding into a slot with room", allocs)
	}
	if len(slot) != slotHeaderLen+3 {
		t.Fatalf("slot is %d bytes", len(slot))
	}
}

// TestSlotDecodeRejectsMalformed covers the defensive paths an untrusted
// driver can hit by scribbling on its rings.
func TestSlotDecodeRejectsMalformed(t *testing.T) {
	if _, _, err := DecodeSlot(nil, nil); err != ErrSlotShort {
		t.Fatalf("nil slot: %v", err)
	}
	if _, _, err := DecodeSlot(make([]byte, slotHeaderLen-1), nil); err != ErrSlotShort {
		t.Fatalf("short slot: %v", err)
	}
	// Queue tag out of range.
	b := AppendSlot(nil, 0, Msg{Op: 1})
	b[8], b[9] = 0xFF, 0xFF
	if _, _, err := DecodeSlot(b, nil); err != ErrSlotQueue {
		t.Fatalf("bad queue: %v", err)
	}
	// Length field larger than the buffer.
	b = AppendSlot(nil, 1, Msg{Data: []byte{1, 2, 3}})
	b[60] = 0x10
	if _, _, err := DecodeSlot(b, nil); err != ErrSlotPayload {
		t.Fatalf("truncated payload: %v", err)
	}
	// Length field absurd.
	b = AppendSlot(nil, 1, Msg{})
	b[62] = 0xFF
	if _, _, err := DecodeSlot(b, nil); err != ErrSlotLength {
		t.Fatalf("absurd length: %v", err)
	}
}

// TestDecodedSlotSurvivesRewrite is the double-fetch guard: once the kernel
// has decoded a slot, a driver rewriting the slot bytes in shared memory
// cannot change the message the kernel acts on — neither through a fresh
// decode nor through a reused landing buffer.
func TestDecodedSlotSurvivesRewrite(t *testing.T) {
	for _, land := range [][]byte{nil, make([]byte, 0, 4)} {
		slot := AppendSlot(nil, 1, Msg{Op: 3, Args: [6]uint64{9}, Data: []byte("first")})
		_, m, err := DecodeSlot(slot, land)
		if err != nil {
			t.Fatal(err)
		}
		for i := range slot {
			slot[i] ^= 0xFF
		}
		if m.Op != 3 || m.Args[0] != 9 || string(m.Data) != "first" {
			t.Fatalf("rewrite reached the decoded message: %+v", m)
		}
	}
}

// FuzzDecodeSlot hammers the kernel-side slot decoder with arbitrary bytes —
// the multi-queue framing an untrusted driver process writes into shared
// memory. The decoder must never panic, and anything it accepts must
// re-encode to a slot that decodes identically (no parser ambiguity). The
// landing-buffer decode must agree with a fresh decode, and rewriting the
// input afterwards must not reach the decoded message.
func FuzzDecodeSlot(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendSlot(nil, 0, Msg{Op: 1, Seq: 2}))
	f.Add(AppendSlot(nil, 3, Msg{Op: 0xFFFFFFFF, Data: []byte("frame bytes")}))
	f.Add(bytes.Repeat([]byte{0xFF}, slotHeaderLen+16))
	land := make([]byte, 0, 32)
	f.Fuzz(func(t *testing.T, data []byte) {
		q, m, err := DecodeSlot(data, nil)
		lq, lm, lerr := DecodeSlot(data, land)
		if (err == nil) != (lerr == nil) || lq != q || lm.Op != m.Op || lm.Seq != m.Seq ||
			lm.Args != m.Args || lm.urgent != m.urgent || !bytes.Equal(lm.Data, m.Data) {
			t.Fatal("landing-buffer decode disagrees with a fresh decode")
		}
		if err != nil {
			return
		}
		if cap(lm.Data) > cap(land) {
			land = lm.Data[:0]
		}
		if q < 0 || q >= MaxQueues {
			t.Fatalf("accepted queue %d out of range", q)
		}
		if len(m.Data) > MaxSlotData {
			t.Fatalf("accepted %d payload bytes", len(m.Data))
		}
		want := append([]byte(nil), lm.Data...)
		for i := range data {
			data[i] ^= 0x5A
		}
		if !bytes.Equal(lm.Data, want) {
			t.Fatal("rewriting the slot changed the decoded payload")
		}
		q2, m2, err := DecodeSlot(AppendSlot(nil, q, m), nil)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if q2 != q || m2.Op != m.Op || m2.Seq != m.Seq || m2.Args != m.Args ||
			m2.urgent != m.urgent || !bytes.Equal(m2.Data, m.Data) {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}
