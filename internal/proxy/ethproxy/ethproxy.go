// Package ethproxy is SUD's Ethernet proxy driver (§3.1): the in-kernel
// module that implements the Linux netdev contract on behalf of an untrusted
// user-space driver, translating kernel calls into uchan upcalls and driver
// downcalls back into kernel operations.
//
// It makes no liveness or semantic assumptions about the driver process:
// synchronous upcalls (open/stop/ioctl) are interruptible, packet transmit
// is asynchronous with shared-buffer backpressure, and every shared-memory
// reference arriving from the driver is validated against the driver's own
// DMA allocations before the kernel touches it. Received packet payloads are
// guard-copied out of shared memory in the same pass that verifies their
// checksum (§3.1.2), closing the TOCTOU window. The proxy records its
// interface's incarnation epoch at bind time; once the netstack begins
// shadow recovery (driver death, §2/§5.2) every downcall from the dead
// incarnation — frames, TX credits, wakes — is rejected and counted.
package ethproxy

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/kernel/netstack"
	"sud/internal/mem"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/proxy/qchan"
	"sud/internal/sim"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// Upcall operations (kernel → driver).
const (
	OpOpen        = protocol.EthBase + iota // sync
	OpStop                                  // sync
	OpXmit                                  // async; Args: [0]=buffer IOVA, [1]=length, [2]=slot index, [3]=TX queue
	OpIoctl                                 // sync; Args: [0]=cmd; Data: argument bytes
	OpPageRecycle                           // chassis recycle lane (qchan.Ops)
	OpQueueEpoch                            // chassis qstate frame (qchan.Ops)
)

// Downcall operations (driver → kernel).
const (
	OpNetifRx  = protocol.EthBase + 16 + iota // Args: [0]=buffer IOVA, [1]=length
	OpXmitDone                                // Args: [0]=slot index
	OpCarrierOn
	OpCarrierOff
	OpWakeQueue // Args: [0]=TX queue regaining space
	// OpNetifRxBatch delivers up to MaxRxBatch received-frame references
	// in one message; Data carries the rxbatch.go framing. The queue is
	// the ring the message arrived on.
	OpNetifRxBatch
	OpRecycleAck // chassis recycle lane (qchan.Ops)
)

// TX shared-pool geometry: SUD preallocates shared buffers and passes
// pointers, avoiding copies on the transmit path (§3.1.2).
const (
	TxSlots    = 256
	TxSlotSize = 2048
)

// Guard strategies for received shared-memory payloads (§3.1.2): the paper
// fuses the TOCTOU guard copy with checksum verification; the ablations
// measure the naive two-pass copy and the rejected read-only-page-table
// alternative (an IOTLB invalidation per buffer, which the paper found
// "prohibitively expensive").
const (
	GuardFused = iota
	GuardSeparate
	GuardReadonlyIOTLB
	// GuardNone passes the kernel a live view of the shared buffer — the
	// insecure zero-copy variant, kept to demonstrate the §3.1.2 TOCTOU
	// attack the guard copy exists to stop.
	GuardNone
	// GuardPageFlip amortises the guard to page granularity: for a batch
	// whose references fully tile a 4-KiB buffer page, the proxy revokes
	// the driver's IOMMU mapping for the whole page (one walk per page,
	// one IOTLB shootdown per batch), delivers every frame on it by
	// reference — the driver can no longer touch the bytes, so the TOCTOU
	// property holds without a copy — and returns the page on the lazy
	// recycle lane. Frames on partially-covered pages fall back to the
	// fused guard copy.
	GuardPageFlip
)

// RxSlotSize is the page-flip eligibility contract with page-aware drivers:
// RX buffers are packed two per 4-KiB page at this stride, and a reference
// only counts toward a page's coverage if it starts on a slot boundary. (It
// matches the e1000e buffer size; a driver using different packing simply
// never flips and pays the per-frame guard instead.)
const RxSlotSize = 2048

// Proxy is one Ethernet proxy driver instance. Both fast paths are
// multi-queue aware. Transmit: the shared buffer pool is partitioned across
// the channel's ring pairs, frames are steered to a queue by flow hash, and
// backpressure (slot exhaustion, ring-full) is tracked per queue so one
// saturated queue stops — and later wakes — only its own netstack queue
// context. Receive: each ring delivers into its own per-queue partition
// (validation and counters per ring), and frames arrive batched up to
// MaxRxBatch references per downcall so a queue pays a fraction of a
// doorbell per frame instead of a wakeup each. The per-queue mechanics —
// epoch fence, park/re-arm, slot pools, recycle lane — are the embedded
// qchan chassis.
type Proxy struct {
	qchan.Chassis

	K   *KernelIface
	Ifc *netstack.Iface

	// GuardMode selects the §3.1.2 TOCTOU-guard strategy (ablations).
	GuardMode int

	// Per-queue RX partitions: frames and batches delivered per ring.
	RxQueueFrames  []uint64
	RxQueueBatches []uint64
	// rxRefs is each queue's decode scratch for RX batches.
	rxRefs [][]RxRef

	// Security / robustness counters.
	RxInvalidRef uint64 // shared-buffer references outside the driver's memory
	RxBadLength  uint64
	RxBadBatch   uint64 // malformed batch framing from the driver
	RxStaleEpoch uint64 // downcalls from a dead driver incarnation
	// RxStaleQueueEpoch counts deliveries rejected by the per-queue epoch
	// discipline: the queue is quarantined and not yet re-armed.
	RxStaleQueueEpoch uint64
	RxRevokedRef      uint64 // references naming a page the kernel already owns
	TxDropsHung       uint64
	MirrorUpdates     uint64 // shared-state synchronisation messages (§3.3)
}

// KernelIface is the slice of kernel services the proxy needs (breaking a
// direct dependency on the kernel package for testability).
type KernelIface struct {
	Acct *sim.CPUAccount
	Mem  *mem.Memory
	Net  *netstack.Stack
}

// New registers an Ethernet interface backed by the user-space driver on
// the other end of c. mac is the mirrored hardware address (§3.3: shared
// state such as dev_addr is synchronised, not fetched by upcall). If the
// requested interface name is taken, the next free ethN is allocated, as
// the kernel's netdev core does — so several NIC driver processes coexist.
func New(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, mac [6]byte) (*Proxy, error) {
	return newProxy(ki, df, c, name, mac, false)
}

// NewStandby builds a hot-standby driver's proxy, TX pool included, armed
// for the named live interface before any kill (the MAC identity check runs
// now); it binds to the interface at promotion, at the failover epoch.
func NewStandby(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, mac [6]byte) (*Proxy, error) {
	return newProxy(ki, df, c, name, mac, true)
}

// newProxy builds a proxy whose TX pool is TxSlots shared slots split evenly
// across the channel's queues, and joins it to the netstack.
func newProxy(ki *KernelIface, df *pciaccess.DeviceFile, c *uchan.MultiChan, name string, mac [6]byte, standby bool) (*Proxy, error) {
	q := c.NumQueues()
	p := &Proxy{K: ki, RxQueueFrames: make([]uint64, q), RxQueueBatches: make([]uint64, q),
		rxRefs: make([][]RxRef, q)}
	err := p.Init(ki.Acct, df, c, qchan.Config{
		Class: "ethproxy", Pool: "TX", SlotsPerQueue: TxSlots / q, SlotSize: TxSlotSize,
		Ops: qchan.Ops{Open: OpOpen, Stop: OpStop, PageRecycle: OpPageRecycle, QueueEpoch: OpQueueEpoch,
			RecycleAck: OpRecycleAck, WakeQueue: OpWakeQueue},
	})
	if err == nil {
		err = qchan.Join(ki.Net, standby, name, mac, api.NetDevice((*proxyDev)(p)), p.Bind)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Bind attaches the proxy to the interface it backs, at the interface's
// current epoch: a promoted standby binds after the primary's death bumped
// it, so the dead primary's proxy stays stale.
func (p *Proxy) Bind(ifc *netstack.Iface) {
	p.Ifc = ifc
	p.Attach(ifc, ifc.WakeQueue)
}

// StaleEpochDowncalls is the policy plane's zombie-incarnation evidence:
// downcalls this proxy rejected because the interface moved on to a newer
// driver incarnation.
func (p *Proxy) StaleEpochDowncalls() uint64 { return p.RxStaleEpoch }

// proxyDev is the netstack-facing half: it satisfies the same NetDevice
// contract an in-kernel driver would, by RPC (Open and Stop are the
// chassis's synchronous upcalls).
type proxyDev Proxy

func (d *proxyDev) p() *Proxy { return (*Proxy)(d) }

// TxQueues implements api.NetDevice: one netstack queue context per uchan
// ring pair.
func (d *proxyDev) TxQueues() int { return d.p().C.NumQueues() }

// StartXmitQ copies the frame into a shared slot of the given TX queue and
// queues an asynchronous transmit upcall on that queue's ring — the §3.1
// fast path. Pool exhaustion or a hung queue surfaces as backpressure on
// that queue only, never as a blocked kernel thread.
func (d *proxyDev) StartXmitQ(frame []byte, q int) error {
	p := d.p()
	if len(frame) > TxSlotSize {
		return fmt.Errorf("ethproxy: frame of %d bytes exceeds slot size", len(frame))
	}
	q = p.ClampQ(q)
	slot, ok := p.NextSlot(q)
	if !ok {
		return fmt.Errorf("ethproxy: no free TX slots on queue %d", q)
	}
	iova, phys := p.SlotAddr(slot)
	p.K.Acct.Charge(sim.Copy(len(frame)))
	if err := p.K.Mem.Write(phys, frame); err != nil {
		return fmt.Errorf("ethproxy: shared pool write: %w", err)
	}
	err := p.C.ASend(q, uchan.Msg{
		Op:   OpXmit,
		Args: [6]uint64{uint64(iova), uint64(len(frame)), uint64(slot), uint64(q)},
	})
	if err != nil {
		p.TxDropsHung++
		p.Stall(q)
		return fmt.Errorf("ethproxy: xmit upcall: %w", err)
	}
	p.Commit(q)
	p.K.Net.Trace.Mark(trace.MarkNetTx, q, uint64(slot))
	p.K.Net.Trace.Event(trace.ClassNetTx, q, uint64(slot), trace.HopUchanEnq)
	return nil
}

// DoIoctl forwards a device-private ioctl synchronously (the paper's
// SIOCGMIIREG example).
func (d *proxyDev) DoIoctl(cmd uint32, arg []byte) ([]byte, error) {
	return d.p().Call("ioctl", uchan.Msg{Op: OpIoctl, Args: [6]uint64{uint64(cmd)}, Data: arg})
}

// HandleDowncall services one driver→kernel message in kernel context; the
// SUD-UML runtime routes Ethernet-range ops here. q is the ring the message
// arrived on — the RX partition it delivers into and the TX queue its
// completions credit.
func (p *Proxy) HandleDowncall(q int, m uchan.Msg) {
	if p.Stale() {
		// This proxy belongs to a dead driver incarnation: the interface
		// was (or is being) recovered onto a restarted process. Frames,
		// TX credits and wakes from the old incarnation are dropped and
		// counted — its shared buffers are gone and its slot indices now
		// name the new incarnation's pool.
		p.RxStaleEpoch++
		return
	}
	q = p.ClampQ(q)
	switch m.Op {
	case OpNetifRx:
		if p.queueStale(q) {
			return
		}
		if m.Data != nil {
			// Inline (bounced) frame: the bytes were copied through
			// the ring, so only checksum verification remains.
			p.K.Acct.Charge(sim.Checksum(len(m.Data)))
			p.RxQueueFrames[q]++
			p.Ifc.NetifRxVerified(m.Data, q)
			return
		}
		if p.GuardMode == GuardPageFlip {
			// Single-frame transport (Q=1 keeps the paper's exact
			// one-message-per-frame path): a lone ref can never tile a
			// page, so it takes the guard-copy fallback — but it must
			// still flow through the page bookkeeping, because a
			// page-aware driver re-arms its descriptor only when the
			// recycle lane returns the page.
			p.netifRxBatchFlip(q, []RxRef{{IOVA: m.Args[0], Len: uint32(m.Args[1])}})
			return
		}
		p.netifRx(q, mem.Addr(m.Args[0]), int(m.Args[1]))
	case OpNetifRxBatch:
		if p.queueStale(q) {
			return
		}
		// The scratch leaves its queue while the batch is delivered, so
		// a delivery nested inside this one decodes into its own.
		refs, err := DecodeRxBatch(m.Data, p.rxRefs[q])
		p.rxRefs[q] = nil
		switch {
		case err != nil:
			// Malformed framing from the untrusted driver: dropped
			// and counted, never dispatched (§3.1.1).
			p.RxBadBatch++
		case p.GuardMode == GuardPageFlip:
			p.RxQueueBatches[q]++
			p.netifRxBatchFlip(q, refs)
		default:
			p.RxQueueBatches[q]++
			for _, r := range refs {
				p.netifRx(q, mem.Addr(r.IOVA), int(r.Len))
			}
		}
		p.rxRefs[q] = refs
	case OpXmitDone:
		slot := int(m.Args[0])
		sq, ok := p.Credit(slot)
		if !ok {
			return
		}
		if d, ok := p.K.Net.Trace.TakeLat(trace.MarkNetTx, sq, uint64(slot)); ok {
			p.Ifc.Queue(sq).TxLat.Record(d)
		}
		p.K.Net.Trace.Event(trace.ClassNetTx, sq, uint64(slot), trace.HopComplete)
		p.Ifc.TxConfirm(sq)
		p.Release(slot)
	case OpCarrierOn:
		p.MirrorUpdates++
		p.Ifc.CarrierOn()
	case OpCarrierOff:
		p.MirrorUpdates++
		p.Ifc.CarrierOff()
	default:
		p.HandleShared(m)
	}
}

// queueStale applies the queue-granular epoch discipline to RX deliveries
// on ring q: while the queue is quarantined and not yet re-armed, everything
// it delivers is dropped and counted — its buffers sit in a revoked
// sub-domain and its sibling queues must not be touched by the cleanup.
func (p *Proxy) queueStale(q int) bool {
	if p.QueueStale(q) {
		p.RxStaleQueueEpoch++
		return true
	}
	return false
}

// netifRx validates the driver's shared-buffer reference and performs the
// fused guard-copy + checksum (§3.1.2): the kernel's private copy is taken
// before the firewall or any other consumer sees the bytes, so later
// modification of the shared buffer by a malicious driver is harmless.
func (p *Proxy) netifRx(q int, iova mem.Addr, n int) {
	if n <= 0 || n > netstack.EthHeaderLen+1500+4 {
		p.RxBadLength++
		return
	}
	if !p.DF.ValidateRange(iova, n) {
		// Distinguish a reference into a page the kernel already owns
		// (page-flip squatting — ValidateRange has recorded the fault as
		// driver evidence) from one outside the driver's memory entirely.
		if p.DF.PageRevoked(iova) {
			p.RxRevokedRef++
		} else {
			p.RxInvalidRef++
		}
		return
	}
	phys, ok := p.DF.PhysFor(iova)
	if !ok {
		p.RxInvalidRef++
		return
	}
	p.RxQueueFrames[q]++
	if p.GuardMode == GuardNone {
		// INSECURE (demonstration only): the stack and firewall see
		// shared memory the driver can still modify.
		p.K.Acct.Charge(sim.Checksum(n))
		if view, ok := p.K.Mem.Slice(phys, n); ok {
			p.Ifc.NetifRxVerified(view, q)
			p.rxDelivered(q, uint64(iova))
		}
		return
	}
	p.K.Net.Trace.Event(trace.ClassNetRx, q, uint64(iova), trace.HopGuard)
	frame := p.Land(q, n)
	switch p.GuardMode {
	case GuardSeparate:
		// Naive: copy pass, then an independent checksum pass.
		p.K.Acct.Charge(sim.Copy(n) + sim.Checksum(n))
		p.GuardCopiedBytes += uint64(n)
	case GuardReadonlyIOTLB:
		// Mark the page read-only instead of copying: requires an
		// IOTLB invalidation per buffer turnaround.
		p.K.Acct.Charge(sim.Checksum(n) + sim.CostIOTLBInvalidate)
	default:
		// Fused guard copy + checksum, the paper's design — also the
		// fallback for page-flip frames on partially-covered pages.
		p.K.Acct.Charge(sim.ChecksumCopy(n))
		p.GuardCopiedBytes += uint64(n)
	}
	if err := p.K.Mem.Read(phys, frame); err != nil {
		p.RxInvalidRef++
		return
	}
	p.Ifc.NetifRxVerified(frame, q)
	p.rxDelivered(q, uint64(iova))
}

// rxDelivered closes out the receive span for the frame the device wrote at
// iova: it pops the DMA-time stamp the device model placed (recording the
// device→stack end-to-end latency into the queue's histogram) and emits the
// delivery hop. Bounced frames carry no reference and are not recorded.
func (p *Proxy) rxDelivered(q int, iova uint64) {
	tr := p.K.Net.Trace
	if d, ok := tr.TakeLat(trace.MarkNetRx, q, iova); ok {
		p.Ifc.Queue(q).RxLat.Record(d)
	}
	tr.Event(trace.ClassNetRx, q, iova, trace.HopDeliver)
}
