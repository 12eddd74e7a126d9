package pci

// RegFile is a device's MMIO register bank, addressed by byte offset into
// its BAR. Aligned 32-bit registers live in a slice indexed by offset/4, so
// the per-access cost of a doorbell or head-pointer update is an index, not
// a hash. An unaligned offset — or one past the bank — names a cell of its
// own, as it would in a map keyed by offset: those are kept in a side map
// that only such accesses touch.
type RegFile struct {
	words []uint32
	odd   map[uint64]uint32
}

// NewRegFile returns a zeroed bank for a BAR of size bytes.
func NewRegFile(size uint64) RegFile { return RegFile{words: make([]uint32, size/4)} }

// Get returns the register at off (zero if never written).
func (r *RegFile) Get(off uint64) uint32 {
	if i := off >> 2; off&3 == 0 && i < uint64(len(r.words)) {
		return r.words[i]
	}
	return r.odd[off]
}

// Set stores v in the register at off.
func (r *RegFile) Set(off uint64, v uint32) {
	if i := off >> 2; off&3 == 0 && i < uint64(len(r.words)) {
		r.words[i] = v
		return
	}
	if r.odd == nil {
		r.odd = make(map[uint64]uint32)
	}
	r.odd[off] = v
}

// Reset zeroes every register.
func (r *RegFile) Reset() {
	clear(r.words)
	clear(r.odd)
}
