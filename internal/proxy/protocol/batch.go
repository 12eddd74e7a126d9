package protocol

import (
	"encoding/binary"
	"errors"
)

// Batched downcall framing shared by the class batches (ethproxy's RX frame
// references, blkproxy's I/O completions): a little-endian u16 record count,
// then exactly count fixed-size records whose layout the class owns. The
// bytes come from the untrusted driver, so the check never panics and
// rejects a zero or excess count, truncation and trailing slack.

// BatchHeaderLen is the size of the count header.
const BatchHeaderLen = 2

// Batch decode errors.
var (
	ErrBatchShort = errors.New("protocol: batch shorter than header")
	ErrBatchCount = errors.New("protocol: batch count out of range")
	ErrBatchTrunc = errors.New("protocol: batch truncated")
	ErrBatchSlack = errors.New("protocol: batch has trailing bytes")
)

// NewBatch lays out a batch of count recLen-byte records, header filled in,
// in buf's storage (grown when too small), so a caller that passes back its
// last batch reuses one buffer. The records are left for the caller to fill.
func NewBatch(buf []byte, count, recLen int) []byte {
	n := BatchHeaderLen + recLen*count
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	binary.LittleEndian.PutUint16(buf, uint16(count))
	return buf
}

// BatchCount validates a batch of at most max recLen-byte records and
// returns its record count.
func BatchCount(buf []byte, recLen, max int) (int, error) {
	if len(buf) < BatchHeaderLen {
		return 0, ErrBatchShort
	}
	count := int(binary.LittleEndian.Uint16(buf))
	if count == 0 || count > max {
		return 0, ErrBatchCount
	}
	want := BatchHeaderLen + recLen*count
	if len(buf) < want {
		return 0, ErrBatchTrunc
	}
	if len(buf) > want {
		return 0, ErrBatchSlack
	}
	return count, nil
}
