package iommu

import (
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// tlbKey names one cached translation. Entries are keyed by the issuing
// stream as well as the device, as PASID-tagged IOTLBs are: two streams of
// one device never alias each other's cached translations.
type tlbKey struct {
	page   mem.Addr
	stream int
	bdf    uint64 // a pci.BDF
}

// iotlbSize is the modelled IOTLB capacity in 4-KiB translations; evicted
// FIFO. Real VT-d IOTLBs are of this order.
const iotlbSize = 64

// The IOTLB index is an open-addressed table of tlbSlots entries, linear
// probing from a multiplicative hash of the key. tlbSlots is a power of two
// at least twice iotlbSize, so the table is never more than half full and
// every probe sequence ends at an empty slot within a few steps.
const (
	tlbBits  = 7
	tlbSlots = 1 << tlbBits
	tlbMask  = tlbSlots - 1
)

type tlbSlot struct {
	key  tlbKey
	e    pte
	used bool
}

// tlbHome is the slot a key's probe sequence starts at.
func tlbHome(k tlbKey) int {
	h := uint64(k.page)>>mem.PageShift ^ k.bdf<<40 ^ uint64(k.stream)<<56
	return int(h * 0x9E3779B97F4A7C15 >> (64 - tlbBits))
}

// queueKey addresses one per-queue sub-domain: the device plus the stream
// tag its hardware queue stamps on DMA (a PASID in real silicon).
type queueKey struct {
	bdf    pci.BDF
	stream int
}

// domTable attaches domains to keys: devices for the unit's domain table,
// (device, stream) pairs for its sub-domains. A machine has a handful of
// each, so the table is a short slice scanned in attach order rather than
// hashed.
type domTable[K comparable] []domRow[K]

type domRow[K comparable] struct {
	key K
	dom *Domain
}

// get returns the domain attached for k, or nil.
func (t domTable[K]) get(k K) *Domain {
	for _, r := range t {
		if r.key == k {
			return r.dom
		}
	}
	return nil
}

// set attaches dom for k, replacing any previous one; nil detaches.
func (t *domTable[K]) set(k K, dom *Domain) {
	for i, r := range *t {
		if r.key == k {
			if dom == nil {
				*t = append((*t)[:i], (*t)[i+1:]...)
			} else {
				(*t)[i].dom = dom
			}
			return
		}
	}
	if dom != nil {
		*t = append(*t, domRow[K]{k, dom})
	}
}

// Unit is the DMA-remapping hardware unit at the root complex. All upstream
// TLPs pass through Translate before touching DRAM or the MSI window.
//
// Besides the per-device domain table, the unit holds per-(device, stream)
// sub-domains: when a TLP carries a non-zero stream tag and a sub-domain is
// attached for it, the walk uses ONLY that sub-domain — a descriptor naming
// a sibling queue's IOVA faults at the walk, which is the queue-granular
// confinement the per-queue recovery plane builds on. Streams without a
// sub-domain fall back to the device domain, so trusted in-kernel drivers
// (passthrough) and drivers predating the split behave exactly as before.
type Unit struct {
	Cfg   Config
	clock *sim.Clock

	domains domTable[pci.BDF]
	qdoms   domTable[queueKey]
	nextID  int

	// The IOTLB: tlb indexes the cached translations, tlbFIFO holds
	// their keys oldest first for eviction. tlbFIFO is a window onto
	// tlbBuf that slides right as entries are evicted and is moved back
	// to the front when it reaches the end, so eviction is amortised
	// O(1) and never allocates.
	tlb     [tlbSlots]tlbSlot
	tlbFIFO []tlbKey
	tlbBuf  [2 * iotlbSize]tlbKey
	tlbHit  uint64
	tlbMiss uint64

	faults []Fault
	// OnFault, if set, is called for every rejected translation (the
	// kernel's fault handler; SUD uses it to flag misbehaving drivers).
	OnFault func(Fault)

	walks uint64
}

// New returns a unit with no domains: DMA from a device without a domain is
// rejected (the safe default SUD needs; the trusted kernel attaches a
// pass-through domain for devices it drives itself).
func New(cfg Config, clock *sim.Clock) *Unit {
	return &Unit{Cfg: cfg, clock: clock}
}

// NewDomain allocates a fresh, empty domain.
func (u *Unit) NewDomain() *Domain {
	u.nextID++
	return NewDomain(u.nextID)
}

// Attach routes DMA from bdf through dom. Passing nil detaches the device,
// after which its DMA faults.
func (u *Unit) Attach(bdf pci.BDF, dom *Domain) {
	u.domains.set(bdf, dom)
	u.InvalidateDevice(bdf)
}

// Domain returns the domain currently attached to bdf, or nil.
func (u *Unit) Domain(bdf pci.BDF) *Domain { return u.domains.get(bdf) }

// AttachQueue routes DMA stamped with stream from bdf through dom — the
// per-queue sub-domain attach. Passing nil detaches the sub-domain, after
// which the stream falls back to the device domain. Stream 0 (untagged DMA)
// cannot carry a sub-domain.
func (u *Unit) AttachQueue(bdf pci.BDF, stream int, dom *Domain) {
	if stream == 0 {
		return
	}
	u.qdoms.set(queueKey{bdf: bdf, stream: stream}, dom)
	u.InvalidateStream(bdf, stream)
}

// QueueDomain returns the sub-domain attached for (bdf, stream), or nil.
func (u *Unit) QueueDomain(bdf pci.BDF, stream int) *Domain {
	return u.qdoms.get(queueKey{bdf: bdf, stream: stream})
}

// QueueDomains reports how many per-queue sub-domains bdf has attached.
func (u *Unit) QueueDomains(bdf pci.BDF) int {
	n := 0
	for _, q := range u.qdoms {
		if q.key.bdf == bdf {
			n++
		}
	}
	return n
}

// Translate maps (bdf, iova) to a physical address for untagged DMA.
func (u *Unit) Translate(bdf pci.BDF, iova mem.Addr, write bool) (mem.Addr, sim.Duration, error) {
	return u.TranslateQ(bdf, 0, iova, write)
}

// TranslateQ maps (bdf, stream, iova) to a physical address, enforcing
// permissions. A non-zero stream with an attached sub-domain walks that
// sub-domain exclusively; otherwise the device domain applies. The returned
// latency is device-side DMA engine time (IOTLB miss walk), not CPU time. A
// rejected translation is logged and reported to OnFault.
func (u *Unit) TranslateQ(bdf pci.BDF, stream int, iova mem.Addr, write bool) (mem.Addr, sim.Duration, error) {
	dom := u.Domain(bdf)
	if dom == nil {
		return 0, 0, u.faultQ(bdf, stream, iova, write, "no domain attached")
	}

	// Intel VT-d: implicit identity mapping for the MSI window in every
	// page table — it is "not possible to prevent this type of attack"
	// on hardware without interrupt remapping (§5.2). Per-queue
	// sub-domains inherit it: the window is in every page table.
	if u.Cfg.Vendor == VendorIntel && InMSIWindow(iova) {
		return iova, 0, nil
	}

	key := tlbKey{page: mem.PageAlign(iova), stream: stream, bdf: uint64(bdf)}
	if i := u.tlbFind(key); i >= 0 {
		e := u.tlb[i].e
		u.tlbHit++
		if err := checkPerm(e.perm, write); err != "" {
			return 0, 0, u.faultQ(bdf, stream, iova, write, err)
		}
		return e.phys + mem.Addr(mem.PageOffset(iova)), 0, nil
	}
	u.tlbMiss++
	u.walks++
	if stream != 0 {
		if qd := u.QueueDomain(bdf, stream); qd != nil {
			dom = qd
		}
	}
	entry, present := dom.walk(iova)
	if !present {
		return 0, sim.CostIOMMUWalk, u.faultQ(bdf, stream, iova, write, "not present in IO page table")
	}
	if err := checkPerm(entry.perm, write); err != "" {
		return 0, sim.CostIOMMUWalk, u.faultQ(bdf, stream, iova, write, err)
	}
	u.tlbInsert(key, entry)
	return entry.phys + mem.Addr(mem.PageOffset(iova)), sim.CostIOMMUWalk, nil
}

// tlbFind returns the slot caching key, or -1.
func (u *Unit) tlbFind(key tlbKey) int {
	for i := tlbHome(key); u.tlb[i].used; i = (i + 1) & tlbMask {
		if u.tlb[i].key == key {
			return i
		}
	}
	return -1
}

// tlbDelete removes key from the index by backward-shift deletion: each
// later entry of the probe run moves into the freed slot when that slot
// lies on its own probe path, so lookups never need tombstones.
func (u *Unit) tlbDelete(key tlbKey) {
	i := u.tlbFind(key)
	if i < 0 {
		return
	}
	for j := (i + 1) & tlbMask; u.tlb[j].used; j = (j + 1) & tlbMask {
		if (j-tlbHome(u.tlb[j].key))&tlbMask >= (j-i)&tlbMask {
			u.tlb[i] = u.tlb[j]
			i = j
		}
	}
	u.tlb[i] = tlbSlot{}
}

// tlbInsert caches a translation for a key not yet cached, evicting the
// oldest one when full.
func (u *Unit) tlbInsert(key tlbKey, e pte) {
	if len(u.tlbFIFO) >= iotlbSize {
		u.tlbDelete(u.tlbFIFO[0])
		u.tlbFIFO = u.tlbFIFO[1:]
	}
	if len(u.tlbFIFO) == cap(u.tlbFIFO) {
		n := copy(u.tlbBuf[:], u.tlbFIFO)
		u.tlbFIFO = u.tlbBuf[:n]
	}
	u.tlbFIFO = append(u.tlbFIFO, key)
	i := tlbHome(key)
	for u.tlb[i].used {
		i = (i + 1) & tlbMask
	}
	u.tlb[i] = tlbSlot{key: key, e: e, used: true}
}

// tlbDrop evicts every cached translation drop selects, keeping the FIFO
// order of the rest.
func (u *Unit) tlbDrop(drop func(tlbKey) bool) {
	out := u.tlbFIFO[:0]
	for _, k := range u.tlbFIFO {
		if drop(k) {
			u.tlbDelete(k)
		} else {
			out = append(out, k)
		}
	}
	u.tlbFIFO = out
}

func checkPerm(p Perm, write bool) string {
	if write && p&PermWrite == 0 {
		return "write to read-only mapping"
	}
	if !write && p&PermRead == 0 {
		return "read of write-only mapping"
	}
	return ""
}

func (u *Unit) faultQ(bdf pci.BDF, stream int, iova mem.Addr, write bool, reason string) error {
	f := Fault{When: u.clock.Now(), BDF: bdf, Stream: stream, Addr: iova, Write: write, Reason: reason}
	u.faults = append(u.faults, f)
	if u.OnFault != nil {
		u.OnFault(f)
	}
	return f
}

// Invalidate drops the cached translation for one page of one device.
// The caller charges sim.CostIOTLBInvalidate; the paper found per-buffer
// invalidation "prohibitively expensive" (§3.1.2).
func (u *Unit) Invalidate(bdf pci.BDF, iova mem.Addr) {
	page := mem.PageAlign(iova)
	u.tlbDrop(func(k tlbKey) bool { return k.bdf == uint64(bdf) && k.page == page })
}

// RevokePage strips the page at iova from the device's domain — and from
// any per-queue sub-domain that maps it — in a single walk each, and drops
// every cached IOTLB translation for it, returning the physical page the
// mapping named: the device domain's, or, when only sub-domains map the
// page, the lowest stream's, so the answer never depends on attach order. The
// walk cost (sim.CostPageFlipRevoke) and the batch-amortised shootdown
// (sim.CostIOTLBShootdown) are charged by the caller, which knows how many
// pages share one shootdown.
func (u *Unit) RevokePage(bdf pci.BDF, iova mem.Addr) (mem.Addr, bool) {
	dom := u.Domain(bdf)
	if dom == nil {
		return 0, false
	}
	page := mem.PageAlign(iova)
	phys, ok := dom.RevokePage(page)
	qstream := -1
	for _, q := range u.qdoms {
		if q.key.bdf != bdf {
			continue
		}
		if p, qok := q.dom.RevokePage(page); qok && !ok && (qstream < 0 || q.key.stream < qstream) {
			phys, qstream = p, q.key.stream
		}
	}
	ok = ok || qstream >= 0
	if !ok {
		return 0, false
	}
	u.Invalidate(bdf, iova)
	return phys, true
}

// InvalidateDevice drops all cached translations for a device, every stream
// included (domain switch, driver restart).
func (u *Unit) InvalidateDevice(bdf pci.BDF) {
	u.tlbDrop(func(k tlbKey) bool { return k.bdf == uint64(bdf) })
}

// InvalidateStream drops all cached translations one stream of a device
// holds (sub-domain attach/revoke, queue quarantine).
func (u *Unit) InvalidateStream(bdf pci.BDF, stream int) {
	u.tlbDrop(func(k tlbKey) bool { return k.bdf == uint64(bdf) && k.stream == stream })
}

// StreamFaults counts logged faults for one stream of a device — the
// per-queue breach evidence the supervisor's policy plane grades.
func (u *Unit) StreamFaults(bdf pci.BDF, stream int) uint64 {
	var n uint64
	for _, f := range u.faults {
		if f.BDF == bdf && f.Stream == stream {
			n++
		}
	}
	return n
}

// Faults returns the fault log.
func (u *Unit) Faults() []Fault { return u.faults }

// TLBStats returns IOTLB hit/miss counters.
func (u *Unit) TLBStats() (hits, misses uint64) { return u.tlbHit, u.tlbMiss }

// Walks returns the number of page-table walks performed.
func (u *Unit) Walks() uint64 { return u.walks }
