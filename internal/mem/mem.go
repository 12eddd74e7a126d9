// Package mem models the machine's physical memory (DRAM) as a sparse set of
// 4 KiB pages. Every byte a device DMAs, every descriptor a driver writes,
// lives here; nothing in the simulation short-circuits around it, so a DMA to
// a wrong address corrupts exactly the bytes a real DMA would.
package mem

import "fmt"

// PageSize is the physical page size, 4 KiB, matching x86 and the IOMMU page
// granularity SUD depends on (§3.2.1: MMIO ranges must be page-aligned).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a physical (or bus/IO-virtual) address.
type Addr uint64

// PageAlign rounds a down to a page boundary.
func PageAlign(a Addr) Addr { return a &^ (PageSize - 1) }

// PageOffset returns a's offset within its page.
func PageOffset(a Addr) uint64 { return uint64(a) & (PageSize - 1) }

// IsPageAligned reports whether a sits on a page boundary.
func IsPageAligned(a Addr) bool { return PageOffset(a) == 0 }

// AccessError describes a physical memory access that touched an
// unpopulated address.
type AccessError struct {
	Addr  Addr
	Write bool
}

func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("mem: %s of unpopulated physical address %#x", op, uint64(e.Addr))
}

// Page-table geometry: a directory of leaves, each leaf covering one 2 MiB
// region with a slot per 4 KiB page. Regions below dirDirect are indexed
// through a slice, the rest through a map, so a lookup is an index plus a
// pointer chase rather than a hash per access.
const (
	leafShift = 21
	leafPages = 1 << (leafShift - PageShift)
	dirDirect = 1 << 12 // regions below 8 GiB are slice-indexed
)

// leaf holds the pages of one 2 MiB region, plus a bit per page freed
// inside a declared RAM range (a hole, which faults instead of being
// lazily repopulated).
type leaf struct {
	pages [leafPages]*[PageSize]byte
	holes [leafPages / 64]uint64
	n     int // populated pages
}

func (l *leaf) hole(i Addr) bool { return l.holes[i/64]&(1<<(i%64)) != 0 }

func (l *leaf) setHole(i Addr, on bool) {
	if on {
		l.holes[i/64] |= 1 << (i % 64)
	} else {
		l.holes[i/64] &^= 1 << (i % 64)
	}
}

// empty reports whether the leaf records nothing: no page and no hole.
func (l *leaf) empty() bool { return l.n == 0 && l.holes == [leafPages / 64]uint64{} }

// Memory is sparse physical memory. The zero value is empty; populate pages
// with AllocPage/AllocRange, or declare DRAM with AddRAMRange for lazy
// population on first touch.
type Memory struct {
	dir    []*leaf        // leaves of regions below dirDirect
	far    map[Addr]*leaf // leaves of regions at or above dirDirect
	npages int
	rams   []ramRange

	// last caches the most recently used leaf and its region index;
	// removing a leaf from the directory must clear it.
	last    *leaf
	lastIdx Addr

	// Stats.
	reads, writes     uint64
	bytesIn, bytesOut uint64
}

type ramRange struct {
	base Addr
	size uint64
}

// New returns empty physical memory.
func New() *Memory { return &Memory{} }

// AddRAMRange declares [base, base+size) as DRAM. Pages inside a RAM range
// are populated lazily on first access, so declaring gigabytes is free.
func (m *Memory) AddRAMRange(base Addr, size uint64) {
	m.rams = append(m.rams, ramRange{base: PageAlign(base), size: size})
}

// inRAM reports whether addr falls inside a declared RAM range.
func (m *Memory) inRAM(addr Addr) bool {
	for _, r := range m.rams {
		if addr >= r.base && uint64(addr-r.base) < r.size {
			return true
		}
	}
	return false
}

// leafOf returns the leaf covering addr and addr's slot in it. When create
// is set a missing leaf is made; otherwise the leaf may be nil.
func (m *Memory) leafOf(addr Addr, create bool) (*leaf, Addr) {
	idx, slot := addr>>leafShift, addr>>PageShift&(leafPages-1)
	if m.last != nil && m.lastIdx == idx {
		return m.last, slot
	}
	var l *leaf
	if idx < dirDirect {
		if idx < Addr(len(m.dir)) {
			l = m.dir[idx]
		}
	} else {
		l = m.far[idx]
	}
	if l == nil {
		if !create {
			return nil, slot
		}
		l = new(leaf)
		m.setLeaf(idx, l)
	}
	m.last, m.lastIdx = l, idx
	return l, slot
}

// setLeaf installs l (or removes the region's leaf, for nil) in the
// directory.
func (m *Memory) setLeaf(idx Addr, l *leaf) {
	if idx >= dirDirect {
		if m.far == nil {
			m.far = make(map[Addr]*leaf)
		}
		if l == nil {
			delete(m.far, idx)
		} else {
			m.far[idx] = l
		}
		return
	}
	for Addr(len(m.dir)) <= idx {
		m.dir = append(m.dir, nil)
	}
	m.dir[idx] = l
}

// page returns the backing page for addr, lazily populating RAM pages.
func (m *Memory) page(addr Addr) (*[PageSize]byte, bool) {
	l, i := m.leafOf(addr, false)
	if l != nil {
		if pg := l.pages[i]; pg != nil {
			return pg, true
		}
		if l.hole(i) {
			return nil, false
		}
	}
	if !m.inRAM(PageAlign(addr)) {
		return nil, false
	}
	return m.populate(addr), true
}

// populate backs the page containing addr with fresh zeroed memory if it
// has none, clears any hole there, and returns the page.
func (m *Memory) populate(addr Addr) *[PageSize]byte {
	l, i := m.leafOf(addr, true)
	l.setHole(i, false)
	if l.pages[i] == nil {
		l.pages[i] = new([PageSize]byte)
		l.n++
		m.npages++
	}
	return l.pages[i]
}

// AllocPage populates the page containing addr (idempotent) and returns its
// base address.
func (m *Memory) AllocPage(addr Addr) Addr {
	m.populate(addr)
	return PageAlign(addr)
}

// AllocRange populates every page overlapping [addr, addr+size).
func (m *Memory) AllocRange(addr Addr, size uint64) {
	if size == 0 {
		return
	}
	for p := PageAlign(addr); p < addr+Addr(size); p += PageSize {
		m.AllocPage(p)
	}
}

// FreePage removes the page containing addr; later access faults even if the
// page is inside a declared RAM range.
func (m *Memory) FreePage(addr Addr) {
	base := PageAlign(addr)
	hole := m.inRAM(base)
	l, i := m.leafOf(base, hole)
	if l == nil {
		return
	}
	if l.pages[i] != nil {
		l.pages[i] = nil
		l.n--
		m.npages--
	}
	if hole {
		l.setHole(i, true)
	}
	if l.empty() {
		m.setLeaf(base>>leafShift, nil)
		m.last = nil
	}
}

// Populated reports whether the page containing addr is accessible.
func (m *Memory) Populated(addr Addr) bool {
	base := PageAlign(addr)
	if l, i := m.leafOf(base, false); l != nil {
		if l.pages[i] != nil {
			return true
		}
		if l.hole(i) {
			return false
		}
	}
	return m.inRAM(base)
}

// PageCount returns the number of populated pages.
func (m *Memory) PageCount() int { return m.npages }

// Read copies len(p) bytes starting at addr into p. It fails with
// *AccessError if any touched page is unpopulated; in that case p may be
// partially filled.
func (m *Memory) Read(addr Addr, p []byte) error {
	m.reads++
	m.bytesOut += uint64(len(p))
	for len(p) > 0 {
		pg, ok := m.page(addr)
		if !ok {
			return &AccessError{Addr: addr}
		}
		off := PageOffset(addr)
		n := copy(p, pg[off:])
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

// Write copies p into physical memory starting at addr. It fails with
// *AccessError if any touched page is unpopulated; preceding pages will have
// been written (as real partial DMA would).
func (m *Memory) Write(addr Addr, p []byte) error {
	m.writes++
	m.bytesIn += uint64(len(p))
	for len(p) > 0 {
		pg, ok := m.page(addr)
		if !ok {
			return &AccessError{Addr: addr, Write: true}
		}
		off := PageOffset(addr)
		n := copy(pg[off:], p)
		p = p[n:]
		addr += Addr(n)
	}
	return nil
}

// ReadU32 reads a little-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	var b [4]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteU32 writes v little-endian at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return m.Write(addr, b[:])
}

// ReadU64 reads a little-endian uint64 at addr.
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	var b [8]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// WriteU64 writes v little-endian at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return m.Write(addr, b[:])
}

// Slice returns a direct view of n bytes of backing store at addr, if the
// range lies within a single populated page. It models zero-copy kernel
// access to DRAM (an skb pointing into a DMA buffer); mutations through the
// slice are immediately visible to DMA and vice versa.
func (m *Memory) Slice(addr Addr, n int) ([]byte, bool) {
	if n <= 0 || PageOffset(addr)+uint64(n) > PageSize {
		return nil, false
	}
	pg, ok := m.page(addr)
	if !ok {
		return nil, false
	}
	off := PageOffset(addr)
	return pg[off : off+uint64(n) : off+uint64(n)], true
}

// MustRead is Read that panics on fault; for trusted kernel/test paths where
// a fault indicates a bug in the simulation itself.
func (m *Memory) MustRead(addr Addr, p []byte) {
	if err := m.Read(addr, p); err != nil {
		panic(err)
	}
}

// MustWrite is Write that panics on fault.
func (m *Memory) MustWrite(addr Addr, p []byte) {
	if err := m.Write(addr, p); err != nil {
		panic(err)
	}
}

// Stats returns cumulative access counts.
func (m *Memory) Stats() (reads, writes, bytesIn, bytesOut uint64) {
	return m.reads, m.writes, m.bytesIn, m.bytesOut
}

// Allocator hands out physical pages from a region, page-at-a-time, with a
// free list. The kernel uses one for its own memory and for DMA buffers it
// grants to driver processes.
type Allocator struct {
	mem   *Memory
	start Addr
	next  Addr
	end   Addr
	free  []Addr
}

// NewAllocator manages [start, start+size) of mem. start must be
// page-aligned.
func NewAllocator(mem *Memory, start Addr, size uint64) *Allocator {
	if !IsPageAligned(start) {
		panic(fmt.Sprintf("mem: allocator start %#x not page aligned", uint64(start)))
	}
	return &Allocator{mem: mem, start: start, next: start, end: start + Addr(size)}
}

// AllocPages allocates n contiguous pages, populating them, and returns the
// base address. Contiguity matters: DMA ring buffers are physically
// contiguous on real hardware. Returns 0 and false when exhausted.
func (a *Allocator) AllocPages(n int) (Addr, bool) {
	if n <= 0 {
		return 0, false
	}
	if n == 1 && len(a.free) > 0 {
		p := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		a.mem.AllocPage(p)
		return p, true
	}
	need := Addr(n * PageSize)
	if a.next+need > a.end {
		return 0, false
	}
	base := a.next
	a.next += need
	a.mem.AllocRange(base, uint64(need))
	return base, true
}

// FreePages returns n pages starting at base to the allocator and
// depopulates them so stale access faults.
func (a *Allocator) FreePages(base Addr, n int) {
	for i := 0; i < n; i++ {
		p := base + Addr(i*PageSize)
		a.mem.FreePage(p)
		a.free = append(a.free, p)
	}
}

// InUse returns the number of bytes handed out and not freed.
func (a *Allocator) InUse() uint64 {
	return uint64(a.next-a.start) - uint64(len(a.free))*PageSize
}
