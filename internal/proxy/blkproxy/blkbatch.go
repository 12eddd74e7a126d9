package blkproxy

import (
	"encoding/binary"

	"sud/internal/proxy/protocol"
)

// Batched completion framing — the block analogue of ethproxy's rxbatch.
//
// On a multi-queue channel the driver process posts I/O completions as
// (tag, status, buffer-reference) tuples, batched up to MaxBlkBatch per
// downcall message: one ring slot (and, with downcall batching, a fraction
// of one doorbell) carries a whole interrupt's worth of completions for a
// queue. The batch bytes are written by the untrusted driver process, so
// the kernel-side decoder treats them as hostile input: it never panics,
// bounds every count and length, and malformed batches are dropped and
// counted, never dispatched. DecodeBlkBatch is fuzzed for exactly that
// reason.
//
// Batch layout (little-endian): the protocol batch header (completion
// count), then count × { [0:8) tag, [8:10) status, [10:18) buffer IOVA,
// [18:22) length }.
const (
	// MaxBlkBatch is the most completions one batch downcall may carry.
	MaxBlkBatch = 32

	blkCompLen = 22
)

// CompRef is one I/O completion: the kernel's request tag, the device
// status, and — for successful reads — a buffer in the driver's own DMA
// memory holding the payload. The kernel validates the range against the
// driver's allocations before touching it, like every other shared-memory
// reference.
type CompRef struct {
	Tag    uint64
	Status uint16
	IOVA   uint64
	Len    uint32
}

// EncodeBlkBatch marshals up to MaxBlkBatch completions into batch bytes, in
// buf's storage when it has room (protocol.NewBatch). Longer slices are
// truncated to MaxBlkBatch (callers flush at the bound).
func EncodeBlkBatch(buf []byte, comps []CompRef) []byte {
	if len(comps) > MaxBlkBatch {
		comps = comps[:MaxBlkBatch]
	}
	buf = protocol.NewBatch(buf, len(comps), blkCompLen)
	for i, c := range comps {
		rec := buf[protocol.BatchHeaderLen+blkCompLen*i:]
		binary.LittleEndian.PutUint64(rec, c.Tag)
		binary.LittleEndian.PutUint16(rec[8:], c.Status)
		binary.LittleEndian.PutUint64(rec[10:], c.IOVA)
		binary.LittleEndian.PutUint32(rec[18:], c.Len)
	}
	return buf
}

// DecodeBlkBatch unmarshals batch bytes written by the (untrusted) driver
// process into comps's storage (appending from comps[:0]). It never panics
// on arbitrary input; malformed batches return one of the protocol batch
// errors and comps[:0].
func DecodeBlkBatch(buf []byte, comps []CompRef) ([]CompRef, error) {
	comps = comps[:0]
	count, err := protocol.BatchCount(buf, blkCompLen, MaxBlkBatch)
	if err != nil {
		return comps, err
	}
	for i := 0; i < count; i++ {
		rec := buf[protocol.BatchHeaderLen+blkCompLen*i:]
		comps = append(comps, CompRef{
			Tag:    binary.LittleEndian.Uint64(rec),
			Status: binary.LittleEndian.Uint16(rec[8:]),
			IOVA:   binary.LittleEndian.Uint64(rec[10:]),
			Len:    binary.LittleEndian.Uint32(rec[18:]),
		})
	}
	return comps, nil
}
