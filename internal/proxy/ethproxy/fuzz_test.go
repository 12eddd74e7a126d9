package ethproxy

import (
	"testing"

	"sud/internal/proxy/protocol"
)

// TestRxBatchRoundTrip pins the batched-RX framing: every reference
// survives encode→decode, and the encoder truncates at MaxRxBatch.
func TestRxBatchRoundTrip(t *testing.T) {
	cases := [][]RxRef{
		{{IOVA: 0x1000, Len: 64}},
		{{IOVA: ^uint64(0), Len: ^uint32(0)}, {IOVA: 0, Len: 0}},
		make([]RxRef, MaxRxBatch),
	}
	for _, refs := range cases {
		got, err := DecodeRxBatch(EncodeRxBatch(nil, refs), nil)
		if err != nil {
			t.Fatalf("decode(%d refs): %v", len(refs), err)
		}
		if len(got) != len(refs) {
			t.Fatalf("round trip %d -> %d refs", len(refs), len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("ref %d mangled: %+v -> %+v", i, refs[i], got[i])
			}
		}
	}
	// Oversized input truncates at the bound instead of overflowing.
	big := make([]RxRef, MaxRxBatch+7)
	got, err := DecodeRxBatch(EncodeRxBatch(nil, big), nil)
	if err != nil || len(got) != MaxRxBatch {
		t.Fatalf("oversized batch: %d refs, %v", len(got), err)
	}
}

// TestRxBatchDecodeRejectsMalformed covers the defensive paths a malicious
// driver can hit by scribbling batch bytes into its rings.
func TestRxBatchDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeRxBatch(nil, nil); err != protocol.ErrBatchShort {
		t.Fatalf("nil batch: %v", err)
	}
	if _, err := DecodeRxBatch([]byte{1}, nil); err != protocol.ErrBatchShort {
		t.Fatalf("1-byte batch: %v", err)
	}
	// Zero count and absurd counts are rejected.
	if _, err := DecodeRxBatch([]byte{0, 0}, nil); err != protocol.ErrBatchCount {
		t.Fatalf("zero count: %v", err)
	}
	if _, err := DecodeRxBatch([]byte{0xFF, 0xFF}, nil); err != protocol.ErrBatchCount {
		t.Fatalf("absurd count: %v", err)
	}
	// Count names more refs than the buffer carries.
	b := EncodeRxBatch(nil, []RxRef{{IOVA: 1, Len: 2}})
	b[0] = 2
	if _, err := DecodeRxBatch(b, nil); err != protocol.ErrBatchTrunc {
		t.Fatalf("truncated batch: %v", err)
	}
	// Trailing garbage is rejected, not silently ignored (no parser
	// ambiguity for a smuggled second payload).
	b = EncodeRxBatch(nil, []RxRef{{IOVA: 1, Len: 2}})
	b = append(b, 0xEE)
	if _, err := DecodeRxBatch(b, nil); err != protocol.ErrBatchSlack {
		t.Fatalf("slack bytes: %v", err)
	}
}

// FuzzDecodeRxBatch hammers the kernel-side batch decoder with arbitrary
// bytes — the framing an untrusted driver process writes into shared
// memory. The decoder must never panic, anything it accepts must respect
// the batch bound, and accepted batches must re-encode to bytes that decode
// identically (no parser ambiguity). Decoding into a reused scratch, and
// encoding into a reused buffer, must agree with the fresh results.
func FuzzDecodeRxBatch(f *testing.F) {
	var scratch []RxRef
	var enc []byte
	f.Add([]byte{})
	f.Add(EncodeRxBatch(nil, []RxRef{{IOVA: 0x2000, Len: 1514}}))
	f.Add(EncodeRxBatch(nil, make([]RxRef, MaxRxBatch)))
	f.Add([]byte{0xFF, 0x00, 1, 2, 3})
	// Page-flip shapes: slot-packed refs fully tiling one page (the flip
	// fast path), a duplicate slot (must fall back to the per-frame
	// guard), and a ref straddling a slot boundary.
	f.Add(EncodeRxBatch(nil, []RxRef{
		{IOVA: 0x4000, Len: 1514}, {IOVA: 0x4000 + RxSlotSize, Len: 60},
	}))
	f.Add(EncodeRxBatch(nil, []RxRef{
		{IOVA: 0x4000, Len: 64}, {IOVA: 0x4000, Len: 64},
	}))
	f.Add(EncodeRxBatch(nil, []RxRef{{IOVA: 0x4000 + RxSlotSize/2, Len: 1514}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := DecodeRxBatch(data, nil)
		var serr error
		scratch, serr = DecodeRxBatch(data, scratch)
		if (err == nil) != (serr == nil) || len(scratch) != len(refs) {
			t.Fatal("scratch decode disagrees with a fresh decode")
		}
		if err != nil {
			return
		}
		for i := range refs {
			if scratch[i] != refs[i] {
				t.Fatal("scratch decode mangled a ref")
			}
		}
		if len(refs) == 0 || len(refs) > MaxRxBatch {
			t.Fatalf("accepted %d refs", len(refs))
		}
		enc = EncodeRxBatch(enc, refs)
		refs2, err := DecodeRxBatch(enc, nil)
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if len(refs2) != len(refs) {
			t.Fatal("decode/encode/decode not stable")
		}
		for i := range refs {
			if refs[i] != refs2[i] {
				t.Fatal("decode/encode/decode mangled a ref")
			}
		}
	})
}
