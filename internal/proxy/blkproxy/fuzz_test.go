package blkproxy

import (
	"bytes"
	"testing"
)

// FuzzDecodeBlkBatch feeds arbitrary bytes to the completion-batch decoder.
// The batch buffer is written by the untrusted driver process, so the
// decoder must never panic and must reject anything that does not
// round-trip exactly: counts out of range, truncated entries, trailing
// slack. Decoding into a reused scratch, and encoding into a reused buffer,
// must agree with the fresh results.
func FuzzDecodeBlkBatch(f *testing.F) {
	var scratch []CompRef
	var enc []byte
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0})
	f.Add(EncodeBlkBatch(nil, []CompRef{{Tag: 1, Status: 0, IOVA: 0x42430000, Len: 4096}}))
	f.Add(EncodeBlkBatch(nil, []CompRef{
		{Tag: 7, Status: 3},
		{Tag: ^uint64(0), IOVA: ^uint64(0), Len: ^uint32(0)},
	}))
	// Page-flip shapes: a page-aligned full-block read (the flip fast
	// path) and a deliberately misaligned one (must fall back to the
	// guard copy).
	f.Add(EncodeBlkBatch(nil, []CompRef{{Tag: 2, IOVA: 0x43000000, Len: 4096}}))
	f.Add(EncodeBlkBatch(nil, []CompRef{{Tag: 3, IOVA: 0x43000200, Len: 4096}}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		comps, err := DecodeBlkBatch(buf, nil)
		var serr error
		scratch, serr = DecodeBlkBatch(buf, scratch)
		if (err == nil) != (serr == nil) || len(scratch) != len(comps) {
			t.Fatal("scratch decode disagrees with a fresh decode")
		}
		if err != nil {
			return
		}
		if len(comps) == 0 || len(comps) > MaxBlkBatch {
			t.Fatalf("decoded %d completions", len(comps))
		}
		// Anything that decodes must re-encode to the identical bytes —
		// the framing has no redundancy for an attacker to hide in.
		enc = EncodeBlkBatch(enc, scratch)
		if !bytes.Equal(EncodeBlkBatch(nil, comps), buf) || !bytes.Equal(enc, buf) {
			t.Fatalf("decode/encode mismatch")
		}
	})
}

func TestBlkBatchRoundTrip(t *testing.T) {
	in := []CompRef{
		{Tag: 1, Status: 0, IOVA: 0x42430000, Len: 4096},
		{Tag: 99, Status: 2},
		{Tag: 1 << 40, IOVA: 1 << 50, Len: 7},
	}
	out, err := DecodeBlkBatch(EncodeBlkBatch(nil, in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("entry %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestBlkBatchRejectsMalformed(t *testing.T) {
	good := EncodeBlkBatch(nil, []CompRef{{Tag: 1, Len: 4096}})
	cases := map[string][]byte{
		"short":     {1},
		"zero":      {0, 0},
		"overcount": {255, 255},
		"truncated": good[:len(good)-3],
		"slack":     append(append([]byte{}, good...), 0xEE),
	}
	for name, buf := range cases {
		if _, err := DecodeBlkBatch(buf, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Encode truncates at the bound instead of overflowing the count.
	many := make([]CompRef, MaxBlkBatch+10)
	if got, err := DecodeBlkBatch(EncodeBlkBatch(nil, many), nil); err != nil || len(got) != MaxBlkBatch {
		t.Fatalf("bound truncation: %d, %v", len(got), err)
	}
}

// FuzzDecodeFlushOp feeds arbitrary bytes to the flush-barrier decoder.
// The OpFlushDone frame is written by the untrusted driver process — it is
// the message that tells the kernel "your data is durable" — so the
// decoder must never panic and must reject anything that is not exactly
// one frame; whatever does decode must round-trip to identical bytes (no
// redundancy for an attacker to hide in).
func FuzzDecodeFlushOp(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, flushOpLen-1))
	f.Add(make([]byte, flushOpLen+1))
	f.Add(EncodeFlushOp(FlushOp{Barrier: 1, Epoch: 2, Tag: 3}))
	f.Add(EncodeFlushOp(FlushOp{Barrier: ^uint64(0), Epoch: ^uint64(0), Tag: ^uint64(0), Status: ^uint16(0)}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		fo, err := DecodeFlushOp(buf)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeFlushOp(fo), buf) {
			t.Fatalf("decode/encode mismatch")
		}
	})
}

func TestFlushOpRoundTrip(t *testing.T) {
	in := FlushOp{Barrier: 7, Epoch: 3, Tag: 1 << 40, Status: 2}
	out, err := DecodeFlushOp(EncodeFlushOp(in))
	if err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("%+v != %+v", in, out)
	}
	for _, bad := range [][]byte{nil, {1}, make([]byte, flushOpLen+1)} {
		if _, err := DecodeFlushOp(bad); err == nil {
			t.Fatalf("accepted %d bytes", len(bad))
		}
	}
}
