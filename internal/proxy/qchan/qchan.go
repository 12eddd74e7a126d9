// Package qchan is the per-queue chassis the multi-queue SUD proxy drivers
// (ethproxy, blkproxy) embed. A class keeps its own contract — what a shared
// slot carries, how a payload is guarded, which kernel object it serves —
// and the queue mechanics every class needs live here once: the epoch fence,
// park and re-arm, the stream-tagged slot pools with wake hysteresis, the
// page-flip recycle lane, the guard landing buffers and the upcall plumbing.
// Every downcall the chassis inspects comes from the untrusted driver
// process: malformed or stale input is dropped and counted (§3.1.1).
package qchan

import (
	"errors"
	"fmt"
	"strings"

	"sud/internal/kernel/shadow"
	"sud/internal/mem"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/sim"
	"sud/internal/uchan"
)

// RecycleThreshold is how many lent pages accumulate on a queue before they
// are returned in one recycle upcall: small against the drivers' per-queue
// pools (128 RX pages per e1000e queue, 64 read slots per nvmed queue) so a
// pool never starves, large enough that recycle costs amortise.
const RecycleThreshold = 16

// Object is the kernel-side device object a proxy serves (the netstack
// interface or the block device): its driver-incarnation epoch and each
// queue's own epoch.
type Object interface {
	Epoch() uint64
	QueueEpoch(q int) uint64
}

// Ops names a class's operation codes for the traffic the chassis sends and
// services on its behalf.
type Ops struct {
	// Open and Stop are the synchronous bring-up and quiesce upcalls.
	Open, Stop uint32
	// PageRecycle returns lent buffer pages (async); Data carries the
	// protocol recycle frame (epoch + page IOVAs). Flipped pages are
	// remapped before the upcall, so the driver may re-arm them at once.
	PageRecycle uint32
	// QueueEpoch announces one queue's epoch transition (async); Data
	// carries the protocol qstate frame. Parked: the queue is quarantined.
	// Armed: the runtime adopts the new epoch, stamps it on the queue's
	// completions and drops work held for the dead incarnation.
	QueueEpoch uint32
	// RecycleAck echoes a PageRecycle frame once the driver has re-armed
	// the pages; an ack carrying a dead incarnation's epoch is rejected.
	RecycleAck uint32
	// WakeQueue reports that the queue in Args[0] regained space.
	WakeQueue uint32
}

// Config is a class's fixed chassis geometry.
type Config struct {
	Class         string // error prefix, e.g. "ethproxy"
	Pool          string // slot-pool label prefix, e.g. "TX"
	SlotsPerQueue int
	SlotSize      int
	Ops           Ops
}

// Chassis is one proxy's per-queue machinery; a proxy embedding it exposes
// its counters as the proxy's own fields. Slots are named by global index:
// queue q owns [q*SlotsPerQueue, (q+1)*SlotsPerQueue).
type Chassis struct {
	DF *pciaccess.DeviceFile
	C  *uchan.MultiChan

	// UpcallErrors counts upcalls the driver could not take, credits for
	// slots not in flight, and unknown downcalls.
	UpcallErrors     uint64
	GuardCopiedBytes uint64 // bytes that went through a guard copy
	PagesFlipped     uint64
	Shootdowns       uint64 // batch-amortised IOTLB shootdowns
	RecycleUpcalls   uint64
	RecycleAcks      uint64
	RecycleBadAck    uint64 // malformed ack framing from the driver
	RecycleStaleAck  uint64 // acks carrying a dead incarnation's epoch

	cfg  Config
	acct *sim.CPUAccount // the kernel account shootdowns and remaps charge

	// epoch is obj's incarnation at bind time: once the device core bumps
	// it (driver death → recovery) everything still signed by this proxy
	// is stale. qepoch mirrors each queue's epoch as of its last re-arm;
	// between a surgical quarantine and the re-arm the mismatch fences
	// that queue while siblings flow.
	obj    Object
	wake   func(q int)
	epoch  uint64
	qepoch []uint64

	pools    []*pciaccess.Alloc
	free     [][]int // per queue, taken from the end
	inFlight []bool  // per global slot: handed to the driver
	stalled  []bool  // per queue: out of slots or ring space

	// pending holds lent pages (by IOVA) per queue awaiting the recycle
	// flush; lent dedups them.
	pending [][]uint64
	lent    []map[uint64]bool

	// landing is each queue's guard-copy destination: host memory with no
	// mapping in any driver's IOMMU domain, so later driver stores to the
	// shared source cannot change a payload copied into it.
	landing [][]byte
}

// Init allocates the chassis for mc's queues. Queue i's slot pool is its own
// device-file allocation tagged with device stream i+1, confining it to that
// queue's IOMMU sub-domain: a sibling queue's descriptor naming a slot there
// faults at the walk, with no reliance on driver cooperation.
func (c *Chassis) Init(acct *sim.CPUAccount, df *pciaccess.DeviceFile, mc *uchan.MultiChan, cfg Config) error {
	n := mc.NumQueues()
	c.DF, c.C, c.cfg, c.acct = df, mc, cfg, acct
	c.pools = make([]*pciaccess.Alloc, n)
	for i := range c.pools {
		pool, err := df.AllocDMAQ(cfg.SlotsPerQueue*cfg.SlotSize, fmt.Sprintf("%s q%d slot pool", cfg.Pool, i), false, i+1)
		if err != nil {
			return fmt.Errorf("%s: allocating queue %d slot pool: %w", cfg.Class, i, err)
		}
		c.pools[i] = pool
	}
	c.free = make([][]int, n)
	c.inFlight = make([]bool, n*cfg.SlotsPerQueue)
	for q := range c.free {
		c.resetSlots(q)
	}
	c.stalled = make([]bool, n)
	c.qepoch = make([]uint64, n)
	c.pending = make([][]uint64, n)
	c.lent = make([]map[uint64]bool, n)
	c.landing = make([][]byte, n)
	return nil
}

// Attach binds the chassis to obj at obj's current incarnation; wake
// restarts one of obj's stopped queues.
func (c *Chassis) Attach(obj Object, wake func(q int)) {
	c.obj, c.wake = obj, wake
	c.epoch = obj.Epoch()
	for i := range c.qepoch {
		c.qepoch[i] = obj.QueueEpoch(i)
	}
}

// Epoch is the device incarnation this proxy bound at.
func (c *Chassis) Epoch() uint64 { return c.epoch }

// Stale reports whether the bound object has moved on to a newer driver
// incarnation.
func (c *Chassis) Stale() bool { return c.obj.Epoch() != c.epoch }

// QueueStale reports whether queue q is quarantined and not yet re-armed.
func (c *Chassis) QueueStale(q int) bool { return c.obj.QueueEpoch(q) != c.qepoch[q] }

// ClampQ maps a driver-supplied queue index into range (queue 0 otherwise).
func (c *Chassis) ClampQ(q int) int {
	if q < 0 || q >= len(c.free) {
		return 0
	}
	return q
}

// QueueEpochMirror reports the queue epoch this proxy last re-armed at.
func (c *Chassis) QueueEpochMirror(q int) uint64 {
	if q < 0 || q >= len(c.qepoch) {
		return 0
	}
	return c.qepoch[q]
}

// ParkQueue tells the driver runtime queue q is quarantined. Advisory: the
// epoch fence enforces the quarantine whether or not the driver listens.
func (c *Chassis) ParkQueue(q int) {
	if q >= 0 && q < len(c.qepoch) {
		c.sendQState(q, protocol.QStateParked)
	}
}

// RearmQueue re-syncs queue q with its new incarnation after a surgical
// quarantine: the slots the dead incarnation held are reclaimed (the whole
// partition is free again, in index order) and the stall cleared, lent pages
// are flushed back (the sub-domain is re-armed by now), the mirror adopts
// the new epoch, and an armed frame tells the runtime to stamp it and drop
// work held for the dead incarnation. Sibling queues are untouched.
func (c *Chassis) RearmQueue(q int) {
	if q < 0 || q >= len(c.qepoch) {
		return
	}
	c.resetSlots(q)
	c.stalled[q] = false
	c.flushRecycle(q)
	c.qepoch[q] = c.obj.QueueEpoch(q)
	c.sendQState(q, protocol.QStateArmed)
}

func (c *Chassis) sendQState(q int, flags uint8) {
	err := c.C.ASend(q, uchan.Msg{Op: c.cfg.Ops.QueueEpoch,
		Data: protocol.EncodeQState(protocol.QState{Queue: q, Epoch: uint32(c.qepoch[q]), Flags: flags})})
	if err != nil {
		c.UpcallErrors++
	}
}

func (c *Chassis) resetSlots(q int) {
	per := c.cfg.SlotsPerQueue
	c.free[q] = c.free[q][:0]
	for s := q * per; s < (q+1)*per; s++ {
		c.free[q] = append(c.free[q], s)
		c.inFlight[s] = false
	}
}

// NextSlot reports the slot the next Commit on queue q takes. An empty pool
// stalls the queue and reports false: backpressure on queue q only.
func (c *Chassis) NextSlot(q int) (int, bool) {
	f := c.free[q]
	if len(f) == 0 {
		c.stalled[q] = true
		return 0, false
	}
	return f[len(f)-1], true
}

// SlotAddr is a slot's bus address (what the driver is told) and physical
// address (where the kernel stages a payload).
func (c *Chassis) SlotAddr(slot int) (iova, phys mem.Addr) {
	per := c.cfg.SlotsPerQueue
	off := mem.Addr(slot%per) * mem.Addr(c.cfg.SlotSize)
	return c.pools[slot/per].IOVA + off, c.pools[slot/per].Phys + off
}

// Commit hands queue q's next slot to the driver once its upcall is queued.
func (c *Chassis) Commit(q int) int {
	f := c.free[q]
	slot := f[len(f)-1]
	c.free[q] = f[:len(f)-1]
	c.inFlight[slot] = true
	return slot
}

// Stall marks queue q stopped: its ring refused an upcall.
func (c *Chassis) Stall(q int) { c.stalled[q] = true }

// Credit validates a driver's completion credit for slot and reports the
// slot's queue. A slot out of range or not in flight — a confused or
// malicious driver, or a late credit for a slot RearmQueue reclaimed — is
// rejected and counted: crediting it would hand one slot to two requests.
func (c *Chassis) Credit(slot int) (int, bool) {
	if slot < 0 || slot >= len(c.inFlight) || !c.inFlight[slot] {
		c.UpcallErrors++
		return 0, false
	}
	return slot / c.cfg.SlotsPerQueue, true
}

// Release returns an in-flight slot to its queue's pool.
func (c *Chassis) Release(slot int) {
	q := slot / c.cfg.SlotsPerQueue
	c.inFlight[slot] = false
	c.free[q] = append(c.free[q], slot)
	c.maybeWake(q)
}

// WakeThreshold is how many of a queue's slots must be free before a stopped
// queue is woken: one eighth of the partition, so release-by-release wakes
// do not thrash the sender (32 on a single-queue Ethernet proxy, the classic
// netdev value).
func (c *Chassis) WakeThreshold() int { return max(c.cfg.SlotsPerQueue/8, 1) }

// maybeWake restarts queue q once it has headroom; siblings still out of
// slots stay stopped.
func (c *Chassis) maybeWake(q int) {
	if !c.stalled[q] || len(c.free[q]) < c.WakeThreshold() {
		return
	}
	c.stalled[q] = false
	c.wake(q)
}

// SlotsPerQueue is each queue's pool partition size.
func (c *Chassis) SlotsPerQueue() int { return c.cfg.SlotsPerQueue }

// FreeSlots reports the pool headroom across all queues.
func (c *Chassis) FreeSlots() int {
	n := 0
	for _, f := range c.free {
		n += len(f)
	}
	return n
}

// QueueFreeSlots reports one queue's slot headroom.
func (c *Chassis) QueueFreeSlots(q int) int {
	if q < 0 || q >= len(c.free) {
		return 0
	}
	return len(c.free[q])
}

// Pools returns the per-queue slot-pool allocations.
func (c *Chassis) Pools() []*pciaccess.Alloc { return c.pools }

// Land returns queue q's guard-copy destination for an n-byte payload. The
// consumer it is delivered to borrows it for that call only: the queue's
// next guard copy overwrites it.
func (c *Chassis) Land(q, n int) []byte {
	if cap(c.landing[q]) < n {
		c.landing[q] = make([]byte, n)
	}
	return c.landing[q][:n]
}

// FlipPage revokes the driver's mapping of the page at iova so its bytes can
// be delivered by reference. The caller amortises one Shootdown over its
// batch and lends the page back.
func (c *Chassis) FlipPage(iova mem.Addr) (mem.Addr, bool) {
	phys, err := c.DF.RevokePage(iova)
	if err != nil {
		return 0, false
	}
	c.acct.Charge(sim.CostPageFlipRevoke)
	c.PagesFlipped++
	return phys, true
}

// Shootdown makes a batch's page revocations globally visible.
func (c *Chassis) Shootdown() {
	c.acct.Charge(sim.CostIOTLBShootdown)
	c.Shootdowns++
}

// Lend queues a page for return on queue q's recycle lane, once however
// often it is lent before the flush. FIFO order matches the driver's buffer
// consumption order.
func (c *Chassis) Lend(q int, page uint64) {
	if c.lent[q][page] {
		return
	}
	if c.lent[q] == nil {
		c.lent[q] = make(map[uint64]bool)
	}
	c.lent[q][page] = true
	c.pending[q] = append(c.pending[q], page)
}

// MaybeFlushRecycle flushes queue q's lane at RecycleThreshold pages.
func (c *Chassis) MaybeFlushRecycle(q int) {
	if len(c.pending[q]) >= RecycleThreshold {
		c.flushRecycle(q)
	}
}

// FlushRecycle returns every queue's pending pages regardless of threshold.
func (c *Chassis) FlushRecycle() {
	for q := range c.pending {
		c.flushRecycle(q)
	}
}

// PendingRecyclePages reports pages lent but not yet returned.
func (c *Chassis) PendingRecyclePages() int {
	n := 0
	for _, p := range c.pending {
		n += len(p)
	}
	return n
}

// flushRecycle returns queue q's pending pages, at most
// protocol.MaxRecyclePages per upcall. A page still revoked is remapped into
// the driver's domain first; one that never flipped is returned as is — the
// frame then only hands back re-arm ownership.
func (c *Chassis) flushRecycle(q int) {
	pending := c.pending[q]
	if len(pending) == 0 {
		return
	}
	c.pending[q] = c.pending[q][:0]
	for start := 0; start < len(pending); start += protocol.MaxRecyclePages {
		var returned []uint64
		for _, page := range pending[start:min(start+protocol.MaxRecyclePages, len(pending))] {
			delete(c.lent[q], page)
			if c.DF.PageRevoked(mem.Addr(page)) {
				// Fails only once teardown reclaimed the page: the
				// driver is gone, nothing to return.
				if err := c.DF.RecyclePage(mem.Addr(page)); err != nil {
					continue
				}
				c.acct.Charge(sim.CostPageRecycleMap)
			}
			returned = append(returned, page)
		}
		if len(returned) == 0 {
			continue
		}
		err := c.C.ASend(q, uchan.Msg{Op: c.cfg.Ops.PageRecycle, Data: protocol.EncodeRecycle(uint32(c.epoch), returned)})
		if err != nil {
			// The pages are back in the driver's domain either way; a
			// hung ring just means the driver never reuses them.
			c.UpcallErrors++
			continue
		}
		c.RecycleUpcalls++
	}
}

// HandleShared services the downcalls every class handles alike — the
// recycle ack and the queue wake — after the caller's epoch fence. Any other
// op is an unknown downcall, counted and ignored.
func (c *Chassis) HandleShared(m uchan.Msg) {
	switch m.Op {
	case c.cfg.Ops.RecycleAck:
		epoch, pages, err := protocol.DecodeRecycle(m.Data)
		if err != nil {
			c.RecycleBadAck++
			return
		}
		if epoch != uint32(c.epoch) {
			// Minted for a dead incarnation (replayed across a recovery,
			// or forged): its pages belong to the new pool now.
			c.RecycleStaleAck++
			return
		}
		c.RecycleAcks += uint64(len(pages))
	case c.cfg.Ops.WakeQueue:
		c.maybeWake(c.ClampQ(int(m.Args[0])))
	default:
		c.UpcallErrors++
	}
}

// Open forwards the driver's bring-up as a synchronous upcall.
func (c *Chassis) Open() error {
	_, err := c.Call("open", uchan.Msg{Op: c.cfg.Ops.Open})
	return err
}

// Stop forwards quiesce as a synchronous upcall.
func (c *Chassis) Stop() error {
	_, err := c.Call("stop", uchan.Msg{Op: c.cfg.Ops.Stop})
	return err
}

// Call sends a synchronous, interruptible upcall (open, stop, ioctl) and
// returns the reply payload. A dead or hung driver, or a failure it reports,
// surfaces as an error — never as a blocked kernel thread.
func (c *Chassis) Call(what string, m uchan.Msg) ([]byte, error) {
	reply, err := c.C.Send(m)
	if err != nil {
		c.UpcallErrors++
		return nil, fmt.Errorf("%s: %s upcall: %w", c.cfg.Class, what, err)
	}
	if reply.Args[0] != 0 {
		return nil, fmt.Errorf("%s: driver %s failed: %s", c.cfg.Class, what, reply.Data)
	}
	return reply.Data, nil
}

// Kernel is the kernel table a class proxy registers its driver in
// (netstack.Stack, blockdev.Manager: a shadow.Table and its constructor).
type Kernel[O Object, ID, D any] interface {
	Register(name string, id ID, drv D) (O, error)
	RegisterStandby(name string, id ID, drv D, bind func(O)) error
}

// Join is every class proxy's registration: drv is registered under name
// and bind attaches the proxy to the object. On a name collision the name's
// template is walked — trailing digits stripped, like the kernel's "eth%d" —
// so several driver processes of one class coexist, and a restarted driver
// finds the recovering object it backed under whatever name it had. A hot
// standby instead arms drv for name's live object; bind runs at promotion.
func Join[O Object, ID, D any](k Kernel[O, ID, D], standby bool, name string, id ID, drv D, bind func(O)) error {
	if standby {
		return k.RegisterStandby(name, id, drv, bind)
	}
	obj, err := k.Register(name, id, drv)
	base := strings.TrimRight(name, "0123456789")
	if base == "" {
		base = name
	}
	for i := 1; i < 16 && errors.Is(err, shadow.ErrNameTaken); i++ {
		obj, err = k.Register(fmt.Sprintf("%s%d", base, i), id, drv)
	}
	if err != nil {
		return err
	}
	bind(obj)
	return nil
}
