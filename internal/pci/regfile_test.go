package pci

import (
	"math/rand"
	"testing"
)

// TestRegFileMatchesMap checks the register file against a map keyed by
// offset under random stores, loads and resets, at aligned offsets inside
// the bank, unaligned offsets, and offsets past its end.
func TestRegFileMatchesMap(t *testing.T) {
	const size = 0x400
	rng := rand.New(rand.NewSource(1))
	r, ref := NewRegFile(size), map[uint64]uint32{}
	for op := 0; op < 20000; op++ {
		off := uint64(rng.Intn(size + 64))
		if rng.Intn(2) == 0 {
			off &^= 3
		}
		switch rng.Intn(40) {
		case 0:
			r.Reset()
			clear(ref)
		case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18:
			v := rng.Uint32()
			r.Set(off, v)
			ref[off] = v
		default:
			if got := r.Get(off); got != ref[off] {
				t.Fatalf("op %d: Get(%#x) = %#x, map %#x", op, off, got, ref[off])
			}
		}
	}
	if len(r.words) != size/4 {
		t.Fatalf("bank has %d words, want %d", len(r.words), size/4)
	}
}
