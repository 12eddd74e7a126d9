package iommu

import (
	"fmt"
	"reflect"
	"testing"

	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// linearUnit is the reference IOTLB model: the straightforward unit with
// the cache as a linear slice scanned on every lookup and evicted FIFO by
// reslicing. The indexed IOTLB must be indistinguishable from it.
type linearUnit struct {
	cfg     Config
	clock   *sim.Clock
	domains map[pci.BDF]*Domain
	qdoms   map[queueKey]*Domain
	tlb     []linearEntry
	hits    uint64
	misses  uint64
	walks   uint64
	faults  []Fault
}

type linearEntry struct {
	bdf    pci.BDF
	stream int
	iova   mem.Addr
	pte    pte
}

func (u *linearUnit) fault(bdf pci.BDF, stream int, iova mem.Addr, write bool, reason string) error {
	f := Fault{When: u.clock.Now(), BDF: bdf, Stream: stream, Addr: iova, Write: write, Reason: reason}
	u.faults = append(u.faults, f)
	return f
}

func (u *linearUnit) translate(bdf pci.BDF, stream int, iova mem.Addr, write bool) (mem.Addr, sim.Duration, error) {
	dom, ok := u.domains[bdf]
	if !ok {
		return 0, 0, u.fault(bdf, stream, iova, write, "no domain attached")
	}
	if qd, qok := u.qdoms[queueKey{bdf: bdf, stream: stream}]; qok {
		dom = qd
	}
	if u.cfg.Vendor == VendorIntel && InMSIWindow(iova) {
		return iova, 0, nil
	}
	page := mem.PageAlign(iova)
	for _, e := range u.tlb {
		if e.bdf == bdf && e.stream == stream && e.iova == page {
			u.hits++
			if err := checkPerm(e.pte.perm, write); err != "" {
				return 0, 0, u.fault(bdf, stream, iova, write, err)
			}
			return e.pte.phys + mem.Addr(mem.PageOffset(iova)), 0, nil
		}
	}
	u.misses++
	u.walks++
	entry, present := dom.walk(iova)
	if !present {
		return 0, sim.CostIOMMUWalk, u.fault(bdf, stream, iova, write, "not present in IO page table")
	}
	if err := checkPerm(entry.perm, write); err != "" {
		return 0, sim.CostIOMMUWalk, u.fault(bdf, stream, iova, write, err)
	}
	if len(u.tlb) >= iotlbSize {
		u.tlb = u.tlb[1:]
	}
	u.tlb = append(u.tlb, linearEntry{bdf: bdf, stream: stream, iova: page, pte: entry})
	return entry.phys + mem.Addr(mem.PageOffset(iova)), sim.CostIOMMUWalk, nil
}

func (u *linearUnit) drop(match func(linearEntry) bool) {
	out := u.tlb[:0]
	for _, e := range u.tlb {
		if !match(e) {
			out = append(out, e)
		}
	}
	u.tlb = out
}

func (u *linearUnit) invalidate(bdf pci.BDF, iova mem.Addr) {
	page := mem.PageAlign(iova)
	u.drop(func(e linearEntry) bool { return e.bdf == bdf && e.iova == page })
}

func (u *linearUnit) revokePage(bdf pci.BDF, iova mem.Addr) (mem.Addr, bool) {
	dom, ok := u.domains[bdf]
	if !ok {
		return 0, false
	}
	page := mem.PageAlign(iova)
	phys, ok := dom.RevokePage(page)
	for k, qd := range u.qdoms {
		if k.bdf == bdf {
			if p, qok := qd.RevokePage(page); qok && !ok {
				phys, ok = p, true
			}
		}
	}
	if !ok {
		return 0, false
	}
	u.invalidate(bdf, iova)
	return phys, true
}

func (u *linearUnit) attach(bdf pci.BDF, dom *Domain) {
	if dom == nil {
		delete(u.domains, bdf)
	} else {
		u.domains[bdf] = dom
	}
	u.drop(func(e linearEntry) bool { return e.bdf == bdf })
}

func (u *linearUnit) attachQueue(bdf pci.BDF, stream int, dom *Domain) {
	if stream == 0 {
		return
	}
	k := queueKey{bdf: bdf, stream: stream}
	if dom == nil {
		delete(u.qdoms, k)
	} else {
		u.qdoms[k] = dom
	}
	u.drop(func(e linearEntry) bool { return e.bdf == bdf && e.stream == stream })
}

// twinDomains keeps two identical page tables, one per unit, so page
// revocation in one unit cannot leak into the other's walks.
type twinDomains struct{ real, ref []*Domain }

func (d *twinDomains) add(u *Unit, passthrough bool) {
	r, l := u.NewDomain(), NewDomain(len(d.ref)+1000)
	r.Passthrough, l.Passthrough = passthrough, passthrough
	d.real, d.ref = append(d.real, r), append(d.ref, l)
}

func (d *twinDomains) mapPage(i int, iova, phys mem.Addr, perm Perm) {
	if (d.real[i].Map(iova, phys, perm) == nil) != (d.ref[i].Map(iova, phys, perm) == nil) {
		panic("twin domains diverged")
	}
}

func (d *twinDomains) unmap(i int, iova mem.Addr) {
	d.real[i].Unmap(iova)
	d.ref[i].Unmap(iova)
}

// checkIOTLBIndex verifies the open-addressed index against the FIFO: it
// holds exactly the FIFO's keys, each reachable from its home slot along
// an unbroken run of used slots, as linear probing requires.
func checkIOTLBIndex(u *Unit) string {
	used := 0
	for i, sl := range u.tlb {
		if !sl.used {
			continue
		}
		used++
		for j := tlbHome(sl.key); j != i; j = (j + 1) & tlbMask {
			if !u.tlb[j].used {
				return fmt.Sprintf("slot %d unreachable from its home: slot %d is empty", i, j)
			}
		}
	}
	if used != len(u.tlbFIFO) {
		return fmt.Sprintf("%d slots used, %d keys in the FIFO", used, len(u.tlbFIFO))
	}
	for _, k := range u.tlbFIFO {
		if u.tlbFind(k) < 0 {
			return fmt.Sprintf("FIFO key %+v missing from the index", k)
		}
	}
	return ""
}

// wrapPages returns, for each device and stream 0..2, pages whose IOTLB
// home slot is one of the last few slots of the index, so their probe runs
// wrap around the end of the table and deletes shift entries back across
// it.
func wrapPages(bdfs []pci.BDF) map[queueKey][]int {
	out := map[queueKey][]int{}
	for _, bdf := range bdfs {
		for stream := 0; stream < 3; stream++ {
			k := queueKey{bdf, stream}
			for p := 0; len(out[k]) < 12; p++ {
				a := mem.Addr(0x10000000 + p*mem.PageSize)
				if tlbHome(tlbKey{page: a, stream: stream, bdf: uint64(bdf)}) >= tlbSlots-4 {
					out[k] = append(out[k], p)
				}
			}
		}
	}
	return out
}

// Property: random translate / invalidate / revoke / attach / sub-domain
// traffic produces the same translations, latencies, hit, miss and walk
// counts and fault log from the indexed IOTLB as from the linear model.
// The "spread" address set draws from 96 consecutive pages, more than the
// IOTLB holds, so eviction is exercised; the "wrap" set draws per device
// and stream from pages homed at the end of the index, so inserts, FIFO
// evictions, page invalidations and device and stream flushes all delete
// inside probe runs that wrap around the table. After every op the index
// must hold exactly the FIFO's keys, each on its probe path.
func TestIOTLBMatchesLinearModel(t *testing.T) {
	bdfs := []pci.BDF{devA, devB}
	perms := []Perm{PermRead, PermWrite, PermRW}
	wrap := wrapPages(bdfs)
	for _, mode := range []string{"spread", "wrap"} {
		var pages []int
		if mode == "spread" {
			for p := 0; p < 96; p++ {
				pages = append(pages, p)
			}
		} else {
			for _, k := range []queueKey{{devA, 0}, {devA, 1}, {devA, 2}, {devB, 0}, {devB, 1}, {devB, 2}} {
				pages = append(pages, wrap[k]...)
			}
		}
		for _, vendor := range []Vendor{VendorIntel, VendorAMD} {
			for seed := uint64(1); seed <= 20; seed++ {
				clock := &sim.Clock{}
				u := New(Config{Vendor: vendor}, clock)
				ref := &linearUnit{cfg: u.Cfg, clock: clock,
					domains: map[pci.BDF]*Domain{}, qdoms: map[queueKey]*Domain{}}
				doms := &twinDomains{}
				for i := 0; i < 4; i++ {
					doms.add(u, i == 3)
				}
				rnd := sim.NewRand(seed)
				iova := func(bdf pci.BDF, stream int) mem.Addr {
					if rnd.Intn(50) == 0 {
						return MSIBase + mem.Addr(rnd.Intn(16))
					}
					p := pages[rnd.Intn(len(pages))]
					if mode == "wrap" {
						ps := wrap[queueKey{bdf, stream}]
						p = ps[rnd.Intn(len(ps))]
					}
					return mem.Addr(0x10000000 + p*mem.PageSize + rnd.Intn(mem.PageSize))
				}
				// Every domain maps an IOVA to the same frame: RevokePage
				// reports the frame of whichever sub-domain it visits
				// first, in map order, so frames that differ by domain
				// would make the model nondeterministic.
				frame := func(a mem.Addr) mem.Addr { return a + 0x30000000 }
				for i := range doms.real[:3] {
					for _, p := range pages {
						if rnd.Intn(4) != 0 {
							a := mem.Addr(0x10000000 + p*mem.PageSize)
							doms.mapPage(i, a, frame(a), perms[rnd.Intn(3)])
						}
					}
				}
				for op := 0; op < 3000; op++ {
					clock.Advance(1)
					bdf := bdfs[rnd.Intn(len(bdfs))]
					stream := rnd.Intn(3)
					what := ""
					switch r := rnd.Intn(100); {
					case r < 70:
						a, write := iova(bdf, stream), rnd.Intn(2) == 0
						gp, gl, ge := u.TranslateQ(bdf, stream, a, write)
						wp, wl, we := ref.translate(bdf, stream, a, write)
						if gp != wp || gl != wl || fmt.Sprint(ge) != fmt.Sprint(we) {
							t.Fatalf("%s %v seed %d op %d: TranslateQ(%s, %d, %#x, %v) = %#x %v %v, model %#x %v %v",
								mode, vendor, seed, op, bdf, stream, uint64(a), write, uint64(gp), gl, ge, uint64(wp), wl, we)
						}
						what = "translate"
					case r < 76:
						a := iova(bdf, stream)
						u.Invalidate(bdf, a)
						ref.invalidate(bdf, a)
						what = "invalidate"
					case r < 80:
						u.InvalidateStream(bdf, stream)
						ref.drop(func(e linearEntry) bool { return e.bdf == bdf && e.stream == stream })
						what = "invalidate stream"
					case r < 82:
						u.InvalidateDevice(bdf)
						ref.drop(func(e linearEntry) bool { return e.bdf == bdf })
						what = "invalidate device"
					case r < 86:
						a := iova(bdf, stream)
						gp, gok := u.RevokePage(bdf, a)
						wp, wok := ref.revokePage(bdf, a)
						if gp != wp || gok != wok {
							t.Fatalf("%s %v seed %d op %d: RevokePage = %#x %v, model %#x %v", mode, vendor, seed, op, uint64(gp), gok, uint64(wp), wok)
						}
						what = "revoke"
					case r < 89:
						i := rnd.Intn(len(doms.real) + 1)
						if i == len(doms.real) {
							u.Attach(bdf, nil)
							ref.attach(bdf, nil)
						} else {
							u.Attach(bdf, doms.real[i])
							ref.attach(bdf, doms.ref[i])
						}
						what = "attach"
					case r < 93:
						i := rnd.Intn(len(doms.real) + 1)
						if i == len(doms.real) {
							u.AttachQueue(bdf, stream, nil)
							ref.attachQueue(bdf, stream, nil)
						} else {
							u.AttachQueue(bdf, stream, doms.real[i])
							ref.attachQueue(bdf, stream, doms.ref[i])
						}
						what = "attach queue"
					case r < 97:
						// Unmap without an invalidation: the IOTLB keeps
						// serving the stale translation, in both models.
						doms.unmap(rnd.Intn(3), iova(bdf, stream))
						what = "unmap"
					default:
						a := mem.PageAlign(iova(bdf, stream))
						doms.mapPage(rnd.Intn(3), a, frame(a), perms[rnd.Intn(3)])
						what = "map"
					}
					gh, gm := u.TLBStats()
					if gh != ref.hits || gm != ref.misses || u.Walks() != ref.walks {
						t.Fatalf("%s %v seed %d op %d (%s): hits/misses/walks %d/%d/%d, model %d/%d/%d",
							mode, vendor, seed, op, what, gh, gm, u.Walks(), ref.hits, ref.misses, ref.walks)
					}
					if len(u.tlbFIFO) != len(ref.tlb) {
						t.Fatalf("%s %v seed %d op %d (%s): %d cached, model %d",
							mode, vendor, seed, op, what, len(u.tlbFIFO), len(ref.tlb))
					}
					for i, k := range u.tlbFIFO {
						if e := ref.tlb[i]; k != (tlbKey{page: e.iova, stream: e.stream, bdf: uint64(e.bdf)}) {
							t.Fatalf("%s %v seed %d op %d (%s): FIFO entry %d is %+v, model %+v", mode, vendor, seed, op, what, i, k, e)
						}
					}
					if msg := checkIOTLBIndex(u); msg != "" {
						t.Fatalf("%s %v seed %d op %d (%s): %s", mode, vendor, seed, op, what, msg)
					}
				}
				if !reflect.DeepEqual(u.Faults(), ref.faults) {
					t.Fatalf("%s %v seed %d: fault logs differ (%d vs %d entries)", mode, vendor, seed, len(u.Faults()), len(ref.faults))
				}
			}
		}
	}
}

// TestTranslateQDoesNotAllocate covers both IOTLB paths of a tagged
// translation: a hit, and a miss that walks, inserts and evicts.
func TestTranslateQDoesNotAllocate(t *testing.T) {
	u := newUnit(Config{Vendor: VendorIntel})
	u.Attach(devA, u.NewDomain())
	sub := u.NewDomain()
	u.AttachQueue(devA, 1, sub)
	for p := 0; p < 4*iotlbSize; p++ {
		if err := sub.Map(mem.Addr(p*mem.PageSize), mem.Addr(0x100000+p*mem.PageSize), PermRW); err != nil {
			t.Fatal(err)
		}
	}
	hit := func() {
		if _, _, err := u.TranslateQ(devA, 1, 0x10, true); err != nil {
			t.Fatal(err)
		}
	}
	page := 0
	miss := func() {
		page = (page + 1) % (4 * iotlbSize)
		if _, _, err := u.TranslateQ(devA, 1, mem.Addr(page*mem.PageSize), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*iotlbSize; i++ {
		miss() // bring the FIFO window to its working size
	}
	hit()
	if allocs := testing.AllocsPerRun(1000, hit); allocs != 0 {
		t.Fatalf("an IOTLB hit allocates %.1f times, want 0", allocs)
	}
	h0, m0 := u.TLBStats()
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Fatalf("an IOTLB miss allocates %.1f times, want 0", allocs)
	}
	if _, m1 := u.TLBStats(); m1-m0 != 1001 {
		t.Fatalf("miss path hit the IOTLB: %d misses over 1001 calls (hits before %d)", m1-m0, h0)
	}
}

// BenchmarkTranslateQ translates a DMA stream over a working set of pages
// that fits the IOTLB, with one in sixteen accesses missing to a page
// outside it: mostly the hit path, with the walk and eviction mixed in.
func BenchmarkTranslateQ(b *testing.B) {
	u := newUnit(Config{Vendor: VendorIntel})
	d := u.NewDomain()
	u.Attach(devA, d)
	for p := 0; p < 1024; p++ {
		if err := d.Map(mem.Addr(p*mem.PageSize), mem.Addr(0x100000+p*mem.PageSize), PermRW); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := i % 48
		if i%16 == 15 {
			p = 48 + i%976
		}
		if _, _, err := u.TranslateQ(devA, 0, mem.Addr(p*mem.PageSize+i%mem.PageSize), i&1 == 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIOTLBEvictionDoesNotAllocate(t *testing.T) {
	u := newUnit(Config{Vendor: VendorAMD})
	d := u.NewDomain()
	d.Passthrough = true
	u.Attach(devA, d)
	page := 0
	next := func() {
		page++
		if _, _, err := u.Translate(devA, mem.Addr(page*mem.PageSize), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*iotlbSize; i++ {
		next() // grow the map and the FIFO window to their working size
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Fatalf("a missing translation allocates %.1f times, want 0", allocs)
	}
}

// TestRevokePageLowestStreamWins: when only per-queue sub-domains map a
// page, and they name different frames, RevokePage reports the frame of the
// lowest stream, every time.
func TestRevokePageLowestStreamWins(t *testing.T) {
	u := New(Config{Vendor: VendorIntel}, &sim.Clock{})
	u.Attach(devA, u.NewDomain())
	q1, q2, q3 := u.NewDomain(), u.NewDomain(), u.NewDomain()
	u.AttachQueue(devA, 3, q3)
	u.AttachQueue(devA, 1, q1)
	u.AttachQueue(devA, 2, q2)
	const iova = mem.Addr(0x10000000)
	for i := 0; i < 100; i++ {
		for j, d := range []*Domain{q3, q2} {
			if err := d.Map(iova, mem.Addr(0x200000+j*mem.PageSize), PermRW); err != nil {
				t.Fatal(err)
			}
		}
		phys, ok := u.RevokePage(devA, iova+0x10)
		if !ok || phys != 0x200000+mem.PageSize {
			t.Fatalf("call %d: RevokePage = %#x, %v; want stream 2's frame %#x", i, phys, ok, 0x200000+mem.PageSize)
		}
		if q2.Pages() != 0 || q3.Pages() != 0 {
			t.Fatalf("call %d: revoke left %d/%d sub-domain pages mapped", i, q2.Pages(), q3.Pages())
		}
	}
}
