package sim

import "math/bits"

// BufPool is a free list of byte buffers in power-of-two size classes, for a
// layer that lends buffers and takes them back: a frame on the wire, a slot
// in a ring, a payload copy held until completion. A pool cycling at a steady
// depth allocates nothing; it grows only when more buffers of a class are out
// at once than ever before, so it stays bounded by the layer's in-flight
// limit. The zero value is an empty pool.
type BufPool struct {
	free [poolClasses][][]byte
}

const (
	poolMinShift = 6  // the smallest class holds 64 bytes
	poolClasses  = 11 // … and the largest 64 KiB
)

// poolClass returns the class whose buffers hold n bytes, or poolClasses
// when n is larger than every class.
func poolClass(n int) int {
	if n <= 1<<poolMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - poolMinShift
}

// Get returns a buffer of length n. Its contents are whatever the last user
// left in it.
func (p *BufPool) Get(n int) []byte {
	c := poolClass(n)
	if c >= poolClasses {
		return make([]byte, n)
	}
	if k := len(p.free[c]); k > 0 {
		b := p.free[c][k-1]
		p.free[c][k-1] = nil
		p.free[c] = p.free[c][:k-1]
		return b[:n]
	}
	return make([]byte, n, 1<<(c+poolMinShift))
}

// Put returns a buffer Get handed out. Buffers the pool did not size (any
// capacity that is not exactly a class) are left to the garbage collector.
func (p *BufPool) Put(b []byte) {
	c := poolClass(cap(b))
	if c >= poolClasses || cap(b) != 1<<(c+poolMinShift) {
		return
	}
	p.free[c] = append(p.free[c], b[:0])
}
