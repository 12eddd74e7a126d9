package ethproxy

import (
	"encoding/binary"

	"sud/internal/proxy/protocol"
)

// Batched RX delivery framing.
//
// On a multi-queue channel the driver process posts received frames as
// shared-buffer references, batched up to MaxRxBatch per downcall message:
// one ring slot (and, with downcall batching, a fraction of one doorbell)
// carries a whole interrupt's worth of frames for a queue, instead of one
// message per frame. The batch bytes are written by the untrusted driver
// process, so the kernel-side decoder treats them as hostile input: it never
// panics, bounds every count and length, and malformed batches are dropped
// and counted, never dispatched. DecodeRxBatch is fuzzed for exactly that
// reason.
//
// Batch layout (little-endian): the protocol batch header (frame count),
// then count × { [0:8) buffer IOVA, [8:12) length }.
const (
	// MaxRxBatch is B: the most frame references one batch downcall may
	// carry (the per-doorbell drain bound of the batched delivery path).
	MaxRxBatch = 32

	rxRefLen = 12
)

// RxRef is one received-frame reference: a buffer in the driver's own DMA
// memory plus its length. The kernel validates the range against the
// driver's allocations before touching it, like every other shared-memory
// reference.
type RxRef struct {
	IOVA uint64
	Len  uint32
}

// EncodeRxBatch marshals up to MaxRxBatch frame references into batch bytes,
// in buf's storage when it has room (protocol.NewBatch). Longer slices are
// truncated to MaxRxBatch (callers flush at the bound).
func EncodeRxBatch(buf []byte, refs []RxRef) []byte {
	if len(refs) > MaxRxBatch {
		refs = refs[:MaxRxBatch]
	}
	buf = protocol.NewBatch(buf, len(refs), rxRefLen)
	for i, r := range refs {
		rec := buf[protocol.BatchHeaderLen+rxRefLen*i:]
		binary.LittleEndian.PutUint64(rec, r.IOVA)
		binary.LittleEndian.PutUint32(rec[8:], r.Len)
	}
	return buf
}

// DecodeRxBatch unmarshals batch bytes written by the (untrusted) driver
// process into refs's storage (appending from refs[:0]). It never panics on
// arbitrary input; malformed batches return one of the protocol batch
// errors and refs[:0].
func DecodeRxBatch(buf []byte, refs []RxRef) ([]RxRef, error) {
	refs = refs[:0]
	count, err := protocol.BatchCount(buf, rxRefLen, MaxRxBatch)
	if err != nil {
		return refs, err
	}
	for i := 0; i < count; i++ {
		rec := buf[protocol.BatchHeaderLen+rxRefLen*i:]
		refs = append(refs, RxRef{IOVA: binary.LittleEndian.Uint64(rec), Len: binary.LittleEndian.Uint32(rec[8:])})
	}
	return refs, nil
}
