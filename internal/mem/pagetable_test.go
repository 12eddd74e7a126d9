package mem

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMemory is the map-backed physical memory the page table replaced,
// kept as the model the page table is checked against.
type refMemory struct {
	pages map[Addr]*[PageSize]byte
	holes map[Addr]bool
	rams  []ramRange
}

func newRefMemory() *refMemory {
	return &refMemory{pages: map[Addr]*[PageSize]byte{}, holes: map[Addr]bool{}}
}

func (m *refMemory) inRAM(a Addr) bool {
	for _, r := range m.rams {
		if a >= r.base && uint64(a-r.base) < r.size {
			return true
		}
	}
	return false
}

func (m *refMemory) page(a Addr) (*[PageSize]byte, bool) {
	base := PageAlign(a)
	pg, ok := m.pages[base]
	if !ok && !m.holes[base] && m.inRAM(base) {
		pg = new([PageSize]byte)
		m.pages[base] = pg
		ok = true
	}
	return pg, ok
}

func (m *refMemory) allocPage(a Addr) {
	base := PageAlign(a)
	delete(m.holes, base)
	if _, ok := m.pages[base]; !ok {
		m.pages[base] = new([PageSize]byte)
	}
}

func (m *refMemory) freePage(a Addr) {
	base := PageAlign(a)
	delete(m.pages, base)
	if m.inRAM(base) {
		m.holes[base] = true
	}
}

func (m *refMemory) populated(a Addr) bool {
	base := PageAlign(a)
	if _, ok := m.pages[base]; ok {
		return true
	}
	return !m.holes[base] && m.inRAM(base)
}

// access mirrors Memory.Read/Write: page by page, stopping at the first
// unpopulated page with the earlier pages already transferred.
func (m *refMemory) access(a Addr, p []byte, write bool) bool {
	for len(p) > 0 {
		pg, ok := m.page(a)
		if !ok {
			return false
		}
		off := PageOffset(a)
		var n int
		if write {
			n = copy(pg[off:], p)
		} else {
			n = copy(p, pg[off:])
		}
		p = p[n:]
		a += Addr(n)
	}
	return true
}

// TestPageTableMatchesMapModel runs random allocations, frees, lazy-RAM
// touches and multi-page reads and writes against the page table and the
// map-backed model in lockstep, comparing every observable. The candidate
// pages straddle 2 MiB leaf boundaries inside and outside a RAM range, and
// sit both below and above the slice-indexed directory, so leaves are
// created, emptied and reclaimed while the last-leaf cache points at them.
// Ops tend to stay near the previous op and the full comparison runs after
// a random subset of ops only, so runs of ops inside one leaf reach the
// page table without a lookup elsewhere refreshing the cache in between.
func TestPageTableMatchesMapModel(t *testing.T) {
	const leafBytes = 1 << leafShift
	ram := ramRange{base: 3 * leafBytes, size: 2 * leafBytes}
	var cand []Addr
	for _, b := range []Addr{
		leafBytes, 2 * leafBytes, // outside RAM
		3 * leafBytes, 4 * leafBytes, 5 * leafBytes, // RAM; 5 is just past it
		dirDirect * leafBytes, (dirDirect + 7) * leafBytes, // map-indexed
	} {
		for _, d := range []int64{-3, -2, -1, 0, 1, 2} {
			cand = append(cand, Addr(int64(b)+d*PageSize))
		}
	}

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := New(), newRefMemory()
		m.AddRAMRange(ram.base, ram.size)
		ref.rams = append(ref.rams, ram)
		ci := 0
		compare := func(op int, desc string, a Addr) {
			if m.PageCount() != len(ref.pages) {
				t.Fatalf("seed %d op %d (%s %#x): PageCount %d, model %d", seed, op, desc, uint64(a), m.PageCount(), len(ref.pages))
			}
			for _, c := range cand {
				if got, want := m.Populated(c), ref.populated(c); got != want {
					t.Fatalf("seed %d op %d (%s %#x): Populated(%#x) %v, model %v", seed, op, desc, uint64(a), uint64(c), got, want)
				}
			}
			for base, pg := range ref.pages {
				got, ok := m.Slice(base, PageSize)
				if !ok || !bytes.Equal(got, pg[:]) {
					t.Fatalf("seed %d op %d (%s %#x): page %#x differs from model (present %v)", seed, op, desc, uint64(a), uint64(base), ok)
				}
			}
		}

		for op := 0; op < 4000; op++ {
			if rng.Intn(4) == 0 {
				ci = rng.Intn(len(cand))
			} else {
				ci = min(max(ci+rng.Intn(3)-1, 0), len(cand)-1)
			}
			a := cand[ci] + Addr(rng.Intn(PageSize))
			var desc string
			switch rng.Intn(6) {
			case 0:
				desc = "AllocPage"
				m.AllocPage(a)
				ref.allocPage(a)
			case 1:
				n := uint64(rng.Intn(3*PageSize) + 1)
				desc = "AllocRange"
				m.AllocRange(a, n)
				for p := PageAlign(a); p < a+Addr(n); p += PageSize {
					ref.allocPage(p)
				}
			case 2, 3:
				desc = "FreePage"
				m.FreePage(a)
				ref.freePage(a)
			case 4:
				buf := make([]byte, rng.Intn(2*PageSize)+1)
				rng.Read(buf)
				desc = "Write"
				got := m.Write(a, buf) == nil
				if want := ref.access(a, buf, true); got != want {
					t.Fatalf("seed %d op %d: Write(%#x, %d) ok=%v, model %v", seed, op, uint64(a), len(buf), got, want)
				}
			case 5:
				n := rng.Intn(2*PageSize) + 1
				got, want := make([]byte, n), make([]byte, n)
				desc = "Read"
				okGot, okWant := m.Read(a, got) == nil, ref.access(a, want, false)
				if okGot != okWant || !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: Read(%#x, %d) ok=%v, model %v (bytes equal %v)", seed, op, uint64(a), n, okGot, okWant, bytes.Equal(got, want))
				}
			}
			if m.PageCount() != len(ref.pages) {
				t.Fatalf("seed %d op %d (%s %#x): PageCount %d, model %d", seed, op, desc, uint64(a), m.PageCount(), len(ref.pages))
			}
			if rng.Intn(8) == 0 {
				compare(op, desc, a)
			}
		}
		compare(-1, "end", 0)
	}
}

// TestPageTableReclaimsEmptyLeaves checks that freeing the last page of a
// leaf outside RAM gives the leaf back, and that the region works again
// afterwards through a fresh leaf.
func TestPageTableReclaimsEmptyLeaves(t *testing.T) {
	m := New()
	a := Addr(7 << leafShift)
	m.AllocPage(a)
	m.MustWrite(a, []byte{1})
	m.FreePage(a)
	if m.dir[7] != nil || m.last != nil {
		t.Fatal("empty leaf outside RAM was not reclaimed")
	}
	m.AllocPage(a + PageSize)
	m.AllocPage(0) // move the last-leaf cache away and back
	if !m.Populated(a+PageSize) || m.Populated(a) {
		t.Fatal("region lost its page after its leaf was reclaimed")
	}
}

// BenchmarkReadWrite measures a DMA-sized read and write that cross a page
// boundary inside lazily populated RAM.
func BenchmarkReadWrite(b *testing.B) {
	m := New()
	m.AddRAMRange(0x100000, 64<<20)
	buf := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := Addr(0x100000 + (i*4096*37)%(60<<20) + 3000)
		m.MustWrite(a, buf)
		m.MustRead(a, buf)
	}
}
