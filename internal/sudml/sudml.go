// Package sudml is SUD-UML (§3.3, §4): the user-space runtime that lets an
// unmodified driver run in an untrusted process. It implements the same
// Linux-like api.Env the real kernel implements, but every operation is
// serviced through the safe PCI device access module and the uchan RPC
// channel instead of by direct kernel privilege:
//
//   - pci_enable_device / config access → filtered ctl-file syscalls
//   - ioremap → the mmio device file
//   - dma_alloc_coherent / caching pool → the dma_coherent / dma_caching
//     files, which also map the pages into the device's IOMMU domain at the
//     driver's own virtual address (§4.1)
//   - request_irq → interrupt upcalls, acknowledged with the interrupt_ack
//     downcall (Figure 7)
//   - netif_rx / carrier changes → downcalls; received payloads travel as
//     shared-buffer references (zero copy, §3.1.2)
//
// A Process models one driver process: it has its own CPU account, Unix
// UID, resource limits, and can be killed and restarted without kernel harm
// (§4.1). The Supervisor (shadow.go) takes that last property the rest of
// the way — the shadow-driver restart the paper sketches in §2 and §5.2:
// a supervised process that dies is respawned against the same device, the
// restarted driver adopts the surviving kernel objects, and the logged
// in-flight work is replayed so applications never see the kill.
package sudml

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/kernel"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/audioproxy"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/ethproxy"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/proxy/wifiproxy"
	"sud/internal/sim"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// RuntimeMemoryBytes is SUD-UML's resident footprint per driver process
// (~3 MB, Figure 5 caption).
const RuntimeMemoryBytes = 3 << 20

// startupCost is the one-time CPU cost of starting the UML environment.
const startupCost sim.Duration = 100 * sim.Microsecond

// Process is one untrusted driver process.
type Process struct {
	Name string
	UID  int

	K    *kernel.Kernel
	DF   *pciaccess.DeviceFile
	Chan *uchan.MultiChan
	Acct *sim.CPUAccount
	Eth  *ethproxy.Proxy

	// QueueAccts are the per-queue service-thread CPU accounts; index q
	// is the thread draining uchan ring q. Single-queue processes have
	// exactly one, named like the process account.
	QueueAccts []*sim.CPUAccount

	driver api.Driver
	inst   api.Instance
	// cls is the device class the driver registered (nil until it does);
	// the driver's device for it is the matching typed field.
	cls        *class
	netdev     api.NetDevice
	wifidev    api.WifiDevice
	audiodev   api.AudioDevice
	blockdev   api.BlockDevice
	ctl        api.CtlHandler
	Wifi       *wifiproxy.Proxy
	Audio      *audioproxy.Proxy
	Blk        *blkproxy.Proxy
	irqHandler func()

	// sliceAddrs maps handed-out DMA slice identities (pointer to first
	// byte) to bus addresses, enabling zero-copy netif_rx. It is sized
	// for its bound up front, so the steady state never grows it.
	sliceAddrs map[*byte]mem.Addr

	// hold holds the class's transmits or block submissions the driver's
	// hardware queues had no room for.
	hold holdQ

	// flushMeta maps an in-flight flush barrier's kernel tag to the
	// framing the OpFlush upcall carried; the completion echoes it back
	// as OpFlushDone so the proxy's barrier accounting can verify it.
	flushMeta map[uint64]blkproxy.FlushOp

	// qep mirrors, per queue, the epoch the kernel last armed the queue
	// at (OpQueueEpoch frames from a surgical quarantine); it is stamped
	// on the queue's completions so the proxy can reject ones minted for
	// a dead incarnation. qparked marks quarantined queues (advisory).
	qep     []uint64
	qparked []bool

	// NoRxBatch disables the class's completion batching (ablation):
	// every received frame or I/O completion crosses the channel as its
	// own downcall, one message — and with uchan batching also disabled,
	// one doorbell — per reference.
	NoRxBatch bool

	// kicker is the probed driver's staged-doorbell flush hook
	// (api.BatchKicker; nil for stock drivers), see wireFastPath.
	kicker api.BatchKicker

	// Counters.
	ZeroCopyRx, BouncedRx uint64
	RxBatches             uint64
	BlkBatches            uint64
	XmitRingDrops         uint64
	BadFlushFrames        uint64
	BadRecycleFrames      uint64
	BadQStateFrames       uint64

	// Recoverable marks the process as supervised: on death its devices
	// enter shadow recovery (parked, adoptable) instead of being
	// unregistered. Set by the supervisor before traffic flows.
	Recoverable bool

	// OnDeath, if set, runs once at the end of Kill — the supervisor's
	// immediate death notification (SIGCHLD, in effect).
	OnDeath func()

	// Flight is the supervisor's per-device flight recorder (nil when
	// unsupervised; records are nil-safe). Kill logs here first, so the
	// timeline reads kill → park → detect → verdict → ...
	Flight *trace.Flight

	// standby marks a hot-standby shell whose driver probe is deferred
	// to promotion (ActivateDriver).
	standby bool

	killed bool
}

// Standby reports whether the process is an unactivated hot-standby shell.
func (p *Process) Standby() bool { return p.standby }

// Start launches a single-queue driver process for dev running drv under
// the given UID. It models the §4.1 flow: SUD-UML finds the device in sysfs,
// asks the kernel to start a proxy driver, opens a uchan, and probes the
// driver.
func Start(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid int) (*Process, error) {
	return StartQ(k, dev, drv, name, uid, 1)
}

// StartQ launches a driver process with `queues` uchan ring pairs — one
// service thread (and CPU account) per simulated CPU/queue, plus the shared
// urgent lane for forwarded interrupts. queues=1 is exactly Start.
func StartQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int) (*Process, error) {
	p, err := newShellQ(k, dev, drv, name, uid, queues, false)
	if err != nil {
		return nil, err
	}
	if err := p.probeDriver(); err != nil {
		return nil, err
	}
	return p, nil
}

// StartStandbyQ spawns a driver process SHELL in hot-standby mode: device
// file open, uchan rings and service threads up, the startup cost paid —
// but the driver is NOT probed, since bringing up hardware the live primary
// still owns would wreck it (an NVMe probe resets the controller). The
// supervisor arms the standby's class against the live kernel object
// (ArmStandby) and calls ActivateDriver at promotion, so only probe +
// bring-up + replay remain on the kill-to-drained path.
func StartStandbyQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int) (*Process, error) {
	return newShellQ(k, dev, drv, name, uid, queues, true)
}

// newShellQ builds the process shell — everything in the §4.1 flow up to
// (but excluding) the driver probe. A standby shell opens the device file
// detached: its DMA mappings build up in its own IOMMU domain, but the
// device's bus identity stays with the live primary until promotion.
func newShellQ(k *kernel.Kernel, dev pci.Device, drv api.Driver, name string, uid, queues int, standby bool) (*Process, error) {
	cfg := dev.Config()
	if !drv.Match(cfg.VendorID(), cfg.DeviceID()) {
		return nil, fmt.Errorf("sudml: driver %s does not match device %s", drv.Name(), dev.BDF())
	}
	accts := k.M.CPU.QueueAccounts("driver:"+name, queues)
	acct := accts[0]
	var df *pciaccess.DeviceFile
	if standby {
		df = pciaccess.OpenDetached(k, dev, uid, acct)
	} else {
		df = pciaccess.Open(k, dev, uid, acct)
	}
	ch := uchan.NewMulti(k.M.Loop, k.Acct, accts)
	p := &Process{
		Name:       name,
		UID:        uid,
		K:          k,
		DF:         df,
		Chan:       ch,
		Acct:       acct,
		QueueAccts: accts,
		driver:     drv,
		standby:    standby,
		sliceAddrs: make(map[*byte]mem.Addr, maxSliceAddrs+1),
		flushMeta:  make(map[uint64]blkproxy.FlushOp),
		qep:        make([]uint64, len(accts)),
		qparked:    make([]bool, len(accts)),
	}
	p.hold = holdQ{p: p, pending: make([][]uchan.Msg, len(accts)), timer: make([]bool, len(accts))}
	ch.SetDriverHandler(p.dispatch)
	ch.SetKernelHandler(p.routeDowncall)
	acct.Charge(startupCost)
	return p, nil
}

// probeDriver runs the driver's probe inside the process. For a normal
// start this happens at spawn; for a hot standby it is deferred to
// promotion (ActivateDriver).
func (p *Process) probeDriver() error {
	inst, err := p.driver.Probe(&env{p: p})
	if err != nil {
		p.DF.Close()
		p.Chan.Kill()
		return fmt.Errorf("sudml: probe %s: %w", p.driver.Name(), err)
	}
	p.inst = inst
	p.ctl, _ = inst.(api.CtlHandler)
	p.wireFastPath()
	p.Chan.Flush() // deliver any downcalls queued during probe
	return nil
}

// wireFastPath installs the drain-end hook when the probed driver stages
// doorbells (api.BatchKicker). KickPending runs first — flushing staged TX
// tails / SQ tails may complete commands or surface frames — and the batches
// those produced flush right after, so everything rides the drain that
// serviced the upcalls. Stock drivers install nothing.
func (p *Process) wireFastPath() {
	if p.kicker == nil {
		p.kicker, _ = p.inst.(api.BatchKicker)
	}
	k := p.kicker
	if k == nil {
		return
	}
	p.Chan.SetOnDrainEnd(func() {
		if p.killed {
			return
		}
		k.KickPending()
		p.flushBatches()
	})
}

// kickPending flushes the driver's staged doorbells from paths that run
// outside an upcall drain (retry timers, driver timers).
func (p *Process) kickPending() {
	if p.kicker != nil && !p.killed {
		p.kicker.KickPending()
	}
}

// ActivateDriver probes the driver inside a promoted standby shell; its
// registration joins the pre-armed class (see register).
func (p *Process) ActivateDriver() error {
	if !p.standby {
		return fmt.Errorf("sudml: %s is not a standby shell", p.Name)
	}
	if p.killed {
		return fmt.Errorf("sudml: standby %s is dead", p.Name)
	}
	p.standby = false
	// The device's bus identity moves to this process's domain, making its
	// pre-built DMA mappings live.
	p.DF.AttachDevice()
	return p.probeDriver()
}

// Kill terminates the driver process (kill -9): the uchan dies, the device
// file tears down DMA mappings and interrupts, and the kernel object
// disappears. The kernel and other processes are unaffected — the device
// can still attempt DMA, which now faults in the IOMMU. A supervised
// (Recoverable) process's object instead enters shadow recovery, parked for
// adoption by the restarted process, so applications holding it see a
// stall, not an error; classes without a recovery path (wifi, audio)
// unregister either way.
func (p *Process) Kill() {
	if p.killed {
		return
	}
	p.killed = true
	p.Flight.Recordf(trace.FKill, "%s (uid %d) killed", p.Name, p.UID)
	p.Chan.Kill()
	p.DF.Close()
	if c := p.cls; c != nil && c.name != "" {
		if l := c.life(); p.Recoverable && l != nil {
			_, _ = l.BeginRecovery(c.name) // fails only for an unregistered name; c.name is bound
		} else {
			c.objs.Unregister(c.name)
		}
	}
	p.K.Logf("sudml: driver process %s (uid %d) killed", p.Name, p.UID)
	if h := p.OnDeath; h != nil {
		p.OnDeath = nil
		h()
	}
}

// Killed reports process death.
func (p *Process) Killed() bool { return p.killed }

// Ctl invokes the driver instance's generic control surface (a synchronous,
// interruptible upcall): the path of classes without a proxy, e.g. USB.
func (p *Process) Ctl(cmd uint32, arg []byte) ([]byte, error) {
	reply, err := p.Chan.Send(uchan.Msg{Op: protocol.OpCtl, Args: [6]uint64{uint64(cmd)}, Data: arg})
	if err != nil {
		return nil, err
	}
	if reply.Args[0] != 0 {
		return nil, fmt.Errorf("sudml: ctl failed: %s", reply.Data)
	}
	return reply.Data, nil
}

// Hang simulates the §3.1.1 liveness attack: the process stops servicing
// its uchan (infinite loop). Sync upcalls become interruptible errors;
// async upcalls pile up until the ring reports the driver hung.
func (p *Process) Hang() { p.Chan.SetHung(true) }

// Unhang resumes servicing (for tests).
func (p *Process) Unhang() { p.Chan.SetHung(false) }

// HangQueue wedges a single queue's service thread (§3.1.1 generalised):
// sibling queues, the urgent lane and the control ring keep servicing.
func (p *Process) HangQueue(q int) { p.Chan.HangQueue(q, true) }

// routeDowncall hands a driver→kernel message to the bound class's proxy
// when its op lies in the class's range; the interrupt ack is common to all
// classes. Runs in kernel context; q is the ring the downcall arrived on.
func (p *Process) routeDowncall(q int, m uchan.Msg) {
	if m.Op == protocol.OpIRQAck {
		p.DF.Ack()
	} else if c := p.cls; c != nil && m.Op >= c.lo && m.Op <= c.hi {
		c.down(q, m)
	}
}

// dispatch services one upcall in driver-process context through the bound
// class's op table; q is the ring the message arrived on (its service
// thread runs the handler). The op is kernel-chosen, but the table still
// bounds-checks it: an op it does not name is answered "not handled".
func (p *Process) dispatch(q int, m uchan.Msg) (uchan.Msg, bool) {
	if p.killed {
		return uchan.Msg{}, false
	}
	ops := commonOps
	if p.cls != nil {
		ops = p.cls.ops
	}
	if m.Op < uint32(len(ops)) && ops[m.Op] != nil {
		return ops[m.Op](p, q, m)
	}
	return ack(m, 1)
}

// worker charges the hand-off of a blocking upcall to a worker thread.
func (p *Process) worker() { p.Acct.Charge(sim.CostWorkerDispatch) }

// ctlUpcall invokes the driver instance's generic control surface.
func (p *Process) ctlUpcall(_ int, m uchan.Msg) (uchan.Msg, bool) {
	if p.ctl == nil {
		return uchan.Msg{Seq: m.Seq, Args: [6]uint64{1}, Data: []byte("no ctl handler")}, true
	}
	p.worker()
	out, err := p.ctl.Ctl(uint32(m.Args[0]), m.Data)
	return replyOut(m, out, err)
}

// interrupt runs the driver's interrupt handler, then feeds held work in
// and flushes the completions the handler gathered.
func (p *Process) interrupt(_ int, m uchan.Msg) (uchan.Msg, bool) {
	if p.irqHandler != nil {
		p.irqHandler()
	}
	// Block completions the handler collected must be DELIVERED — flushed
	// through the ring into the proxy's guard copy — before held
	// submissions run: a drained submission reuses the driver's pool
	// slots, and a still-undelivered zero-copy completion reference into a
	// reused slot would read the new request's bytes (the slot-reuse
	// cousin of the §3.1.2 TOCTOU). Net processes skip this: their RX
	// buffers are only overwritten by device DMA, which cannot run inside
	// this dispatch.
	if p.hold.deliverFirst {
		p.flushBatches()
		p.Chan.Flush()
	}
	// The handler reclaimed TX descriptors (or drained block completion
	// queues); feed held work in. What the handler collected rides out as
	// per-queue batches on the same drain that serviced the interrupt.
	p.hold.drain()
	p.flushBatches()
	return ack(m, 0)
}

// flushBatches emits every queue's partial completion batch; called at the
// end of a dispatch so completions never wait on future traffic.
func (p *Process) flushBatches() {
	if p.cls != nil && p.cls.batch != nil {
		p.cls.batch.flush()
	}
}

// batching reports whether completions ride per-queue batches: multi-queue
// channels batch; a single-queue channel keeps the paper's exact
// one-message-per-completion transport.
func (p *Process) batching() bool { return p.Chan.NumQueues() > 1 && !p.NoRxBatch }

// handleQueueEpoch services an OpQueueEpoch upcall (either class): one
// queue's epoch transition from a surgical quarantine. A parked frame just
// marks the queue so the runtime stops burning CPU on it; an armed frame
// adopts the queue's new epoch for completion stamping and drops work held
// for the dead incarnation — the kernel replays its own request log, so
// re-submitting held upcalls (or flushing completions gathered before the
// quarantine) would double-deliver those tags.
func (p *Process) handleQueueEpoch(_ int, m uchan.Msg) {
	p.Acct.Charge(sim.CostUMLCall)
	s, err := protocol.DecodeQState(m.Data)
	switch {
	case err != nil || s.Queue >= len(p.qep):
		p.BadQStateFrames++
	case s.Parked():
		p.qparked[s.Queue] = true
	default:
		p.qep[s.Queue] = uint64(s.Epoch)
		p.qparked[s.Queue] = false
		p.hold.pending[s.Queue] = nil
		p.cls.batch.reset(s.Queue)
	}
}

// handleRecycle services an OpPageRecycle upcall (either class): the frame
// names buffer pages the kernel has finished with, remapped back into this
// process's domain. They go to the page-aware driver's pool, and the frame is
// echoed back verbatim as the class's recycle ack so the proxy's epoch check
// can reject credits addressed to a dead incarnation.
func (p *Process) handleRecycle(q int, m uchan.Msg, ackOp uint32) {
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	_, pages, err := protocol.DecodeRecycle(m.Data)
	if err != nil {
		p.BadRecycleFrames++
		return
	}
	if rec := p.cls.recycler; rec != nil {
		addrs := make([]mem.Addr, len(pages))
		for i, pg := range pages {
			addrs[i] = mem.Addr(pg)
		}
		rec.RecyclePages(q, addrs)
	}
	if err := p.Chan.DownQ(q, uchan.Msg{Op: ackOp, Data: m.Data}); err != nil {
		p.BadRecycleFrames++
	}
}

// ack is the reply to an upcall: status 0 (done) or 1 (not handled). Async
// upcalls discard it, so it is a value, not an allocation.
func ack(m uchan.Msg, status uint64) (uchan.Msg, bool) {
	return uchan.Msg{Seq: m.Seq, Args: [6]uint64{status}}, true
}

func replyErr(m uchan.Msg, err error) uchan.Msg {
	r := uchan.Msg{Seq: m.Seq}
	if err != nil {
		r.Args[0] = 1
		r.Data = []byte(err.Error())
	}
	return r
}

// replyOut replies with a call's output, or with its error.
func replyOut(m uchan.Msg, out []byte, err error) (uchan.Msg, bool) {
	r := replyErr(m, err)
	if err == nil {
		r.Data = out
	}
	return r, true
}

// xmitRetryDelay is the fallback pacing when held work cannot ride on an
// interrupt (the UML qdisc timer).
const xmitRetryDelay = 100 * sim.Microsecond

// maxPendingTx bounds each UML-side hold queue.
const maxPendingTx = uchan.RingSlots

// holdQ is the class's per-queue hold queue. An upcall whose hardware queue
// is full is held — its shared slot unreleased — so a full ring
// backpressures the kernel through shared-pool exhaustion instead of
// dropping work and burning CPU on doomed retries. Held work drains in
// order after the interrupt handler reclaims descriptors, or on a per-queue
// retry timer; one saturated hardware queue never stalls a sibling.
type holdQ struct {
	p       *Process
	pending [][]uchan.Msg
	timer   []bool

	// try hands one upcall to the driver, reporting false if its queue is
	// full; drop completes one the hold queue has no room for. With
	// deliverFirst, completions gathered so far are delivered before held
	// work drains (block only).
	try          func(q int, m uchan.Msg) bool
	drop         func(q int, m uchan.Msg)
	deliverFirst bool
}

// handle runs m on hardware queue q, or holds it behind earlier held work
// (dropping it when the hold queue is full).
func (h *holdQ) handle(q int, m uchan.Msg) {
	switch {
	case len(h.pending[q]) == 0 && h.try(q, m):
	case len(h.pending[q]) >= maxPendingTx:
		h.drop(q, m)
	default:
		h.pending[q] = append(h.pending[q], m)
		h.arm(q)
	}
}

func (h *holdQ) arm(q int) {
	if !h.timer[q] {
		h.timer[q] = true
		h.p.K.M.Loop.After(xmitRetryDelay, func() { h.retry(q) })
	}
}

func (h *holdQ) retry(q int) {
	h.timer[q] = false
	p := h.p
	if p.killed {
		return
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	if h.deliverFirst {
		p.flushBatches()
		p.Chan.Flush()
	}
	h.drainQ(q)
	p.kickPending()
	if h.deliverFirst {
		p.flushBatches()
	}
	p.Chan.Flush()
	if len(h.pending[q]) > 0 {
		h.arm(q)
	}
}

// drain feeds every queue's held work in; the interrupt handler reclaims
// all hardware queues at once.
func (h *holdQ) drain() {
	for q := range h.pending {
		h.drainQ(q)
	}
}

// drainQ feeds queue q's held work in order.
func (h *holdQ) drainQ(q int) {
	for len(h.pending[q]) > 0 {
		if !h.try(q, h.pending[q][0]) {
			return
		}
		h.pending[q] = h.pending[q][1:]
	}
}

// tryXmit attempts one transmit on hardware queue q; it reports false if the
// ring was full (the message should be held). Invalid references complete
// immediately.
func (p *Process) tryXmit(q int, m uchan.Msg) bool {
	frame, ok := p.sharedView(m.Args[0], m.Args[1])
	if !ok {
		p.dropXmit(q, m)
		return true
	}
	if err := p.netdev.StartXmitQ(frame, q); err != nil {
		return false
	}
	p.K.M.Trace.Event(trace.ClassNetTx, q, m.Args[2], trace.HopDoorbell)
	p.xmitDone(q, m.Args[2])
	return true
}

// sharedView maps the n-byte shared slot at iova, named by a kernel upcall,
// into the process (zero copy).
func (p *Process) sharedView(iova, n uint64) ([]byte, bool) {
	phys, ok := p.DF.PhysFor(mem.Addr(iova))
	if !ok {
		return nil, false
	}
	return p.K.M.Mem.Slice(phys, int(n))
}

// dropXmit completes a transmit it cannot take, releasing its shared slot.
func (p *Process) dropXmit(q int, m uchan.Msg) {
	p.XmitRingDrops++
	p.xmitDone(q, m.Args[2])
}

func (p *Process) xmitDone(q int, slot uint64) {
	p.K.M.Trace.Event(trace.ClassNetTx, q, slot, trace.HopDrvComplete)
	if err := p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpXmitDone, Args: [6]uint64{slot}}); err != nil {
		p.XmitRingDrops++
	}
}

// tryBlkSubmit attempts one submission (or flush barrier) on hardware
// queue q; it reports false if the queue was full (the message should be
// held). Invalid write references complete immediately as errors.
func (p *Process) tryBlkSubmit(q int, m uchan.Msg) bool {
	if m.Op == blkproxy.OpFlush {
		fo, err := blkproxy.DecodeFlushOp(m.Data)
		if err != nil {
			// The frame is kernel-written, but a dropped barrier wedges
			// the device, so the drop is counted and logged, never silent.
			p.BadFlushFrames++
			p.K.Logf("sudml: %s dropped undecodable flush frame (%v)", p.Name, err)
			return true
		}
		p.flushMeta[fo.Tag] = fo
		if err := p.blockdev.Submit(q, api.BlockRequest{Flush: true, Tag: fo.Tag}); err != nil {
			delete(p.flushMeta, fo.Tag)
			return false
		}
		return true
	}
	req := api.BlockRequest{
		Write: m.Args[0]&blkproxy.SubmitWrite != 0,
		FUA:   m.Args[0]&blkproxy.SubmitFUA != 0,
		LBA:   m.Args[1],
		Tag:   m.Args[5],
	}
	if req.Write {
		payload, ok := p.sharedView(m.Args[2], m.Args[3])
		if !ok {
			p.dropBlkSubmit(q, m)
			return true
		}
		req.Data = payload
	}
	if err := p.blockdev.Submit(q, req); err != nil {
		return false
	}
	p.K.M.Trace.Event(trace.ClassBlk, q, req.Tag, trace.HopDoorbell)
	return true
}

// dropBlkSubmit fails a submission it cannot take with a bare error
// status, so the proxy releases the request's slot.
func (p *Process) dropBlkSubmit(q int, m uchan.Msg) {
	_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpComplete, Args: [6]uint64{m.Args[5], 1, 0, 0, p.qep[q]}})
}

// --- api.Env implementation ---------------------------------------------------

// env is what the unmodified driver sees: the SUD-UML kernel environment.
type env struct {
	p *Process
}

var _ api.Env = (*env)(nil)

func (e *env) uml() { e.p.Acct.Charge(sim.CostUMLCall) }

func (e *env) ConfigRead(off, size int) (uint32, error) {
	e.uml()
	return e.p.DF.ConfigRead(off, size)
}

func (e *env) ConfigWrite(off, size int, v uint32) error {
	e.uml()
	return e.p.DF.ConfigWrite(off, size, v)
}

func (e *env) EnableDevice() error { return e.setCommand(pci.CmdMemSpace | pci.CmdIOSpace) }
func (e *env) SetMaster() error    { return e.setCommand(pci.CmdBusMaster) }

// setCommand sets bits in the device's PCI command register.
func (e *env) setCommand(bits uint32) error {
	e.uml()
	cur, err := e.p.DF.ConfigRead(pci.CfgCommand, 2)
	if err != nil {
		return err
	}
	return e.p.DF.ConfigWrite(pci.CfgCommand, 2, cur|bits)
}

func (e *env) FindCapability(id uint8) int {
	e.uml()
	off, err := e.p.DF.ConfigRead(pci.CfgCapPtr, 1)
	if err != nil {
		return 0
	}
	for iter := 0; off != 0 && iter < 16; iter++ {
		cap, err := e.p.DF.ConfigRead(int(off), 2)
		if err != nil {
			return 0
		}
		if uint8(cap) == id {
			return int(off)
		}
		off = cap >> 8
	}
	return 0
}

func (e *env) IORemap(bar int) (api.MMIO, error) {
	e.uml()
	m, err := e.p.DF.MapMMIO(bar)
	if err != nil {
		return nil, err
	}
	return m, nil
}

func (e *env) RequestRegion(bar int) (api.PortIO, error) {
	e.uml()
	io, err := e.p.DF.RequestIOPorts(bar)
	if err != nil {
		return nil, err
	}
	return io, nil
}

func (e *env) AllocCoherent(size int) (api.DMABuf, error) { return e.alloc(size, 0, true) }
func (e *env) AllocCaching(size int) (api.DMABuf, error)  { return e.alloc(size, 0, false) }

// AllocCoherentQ/AllocCachingQ implement api.QueueDMAAllocator: the
// allocation is mapped only into the stream's per-queue IOMMU sub-domain,
// the device-side half of queue-granular DMA confinement. The driver-side
// window is unchanged — the process sees one DMA address space either way.
func (e *env) AllocCoherentQ(size, stream int) (api.DMABuf, error) {
	return e.alloc(size, stream, true)
}

func (e *env) AllocCachingQ(size, stream int) (api.DMABuf, error) {
	return e.alloc(size, stream, false)
}

// alloc maps size bytes of DMA memory into the device's domain, or — for
// stream > 0 — only into that queue's sub-domain.
func (e *env) alloc(size, stream int, coherent bool) (api.DMABuf, error) {
	e.uml()
	label := "caching"
	if coherent {
		label = "coherent"
	}
	if stream > 0 {
		label += fmt.Sprintf(" q%d", stream)
	}
	a, err := e.p.DF.AllocDMAQ(size, fmt.Sprintf("%s #%d", label, len(e.p.DF.Allocs())), coherent, stream)
	if err != nil {
		return nil, err
	}
	return &umlDMA{p: e.p, a: a, size: size}, nil
}

func (e *env) FreeDMA(b api.DMABuf) error {
	e.uml()
	ub, ok := b.(*umlDMA)
	if !ok {
		return fmt.Errorf("sudml: foreign DMA buffer")
	}
	return e.p.DF.FreeDMA(ub.a)
}

func (e *env) RequestIRQ(handler func()) error {
	e.uml()
	p := e.p
	p.irqHandler = handler
	return p.DF.RequestIRQ(func() {
		// Kernel context: forward the interrupt as an urgent upcall —
		// interrupt wakes are the pump for batched async upcalls. On a
		// full or dead ring the interrupt is dropped; masking policy in
		// pciaccess protects the system.
		_ = p.Chan.ASendUrgent(uchan.Msg{Op: protocol.OpInterrupt})
	})
}

func (e *env) FreeIRQ() error {
	e.uml()
	e.p.irqHandler = nil
	return e.p.DF.FreeIRQ()
}

func (e *env) IRQAck() {
	e.uml()
	_ = e.p.Chan.Down(uchan.Msg{Op: protocol.OpIRQAck})
}

// RegisterNetDev implements api.Env for the untrusted host: an Ethernet
// proxy is created in the kernel with the hardware address mirrored.
func (e *env) RegisterNetDev(name string, macAddr [6]byte, dev api.NetDevice) (api.NetKernel, error) {
	return register[api.NetKernel](e, macAddr, dev, &e.p.netdev, func(p *Process) (*class, error) {
		ki := &ethproxy.KernelIface{Acct: p.K.Acct, Mem: p.K.M.Mem, Net: p.K.Net}
		return p.netClass(ethproxy.New(ki, p.DF, p.Chan, name, macAddr))
	})
}

func (e *env) Jiffies() uint64 {
	e.uml()
	return e.p.K.Jiffies()
}

func (e *env) Timer(delayJiffies uint64, fn func()) {
	e.uml()
	p := e.p
	p.K.M.Loop.After(sim.Duration(delayJiffies)*(sim.Second/kernel.HZ), func() {
		if p.killed {
			return
		}
		p.Acct.Charge(sim.CostUMLCall)
		fn()
		p.kickPending()
		p.flushBatches()
		p.Chan.Flush()
	})
}

func (e *env) Logf(format string, args ...any) {
	e.p.K.Logf("[sud:"+e.p.Name+"] "+format, args...)
}

// RegisterWifiDev implements api.EnvWifi for the untrusted host: a wireless
// proxy is created in the kernel, with the driver's static feature set
// mirrored at registration (§3.1.1).
func (e *env) RegisterWifiDev(name string, macAddr [6]byte, dev api.WifiDevice) (api.WifiKernel, error) {
	return register[api.WifiKernel](e, macAddr, dev, &e.p.wifidev, func(p *Process) (*class, error) {
		return p.wifiClass(wifiproxy.New(p.K.Wifi, p.DF, p.Chan.Queue(0), name, macAddr, dev.Features()))
	})
}

// RegisterSoundDev implements api.EnvAudio for the untrusted host.
func (e *env) RegisterSoundDev(name string, dev api.AudioDevice) (api.AudioKernel, error) {
	return register[api.AudioKernel](e, name, dev, &e.p.audiodev, func(p *Process) (*class, error) {
		return p.audioClass(audioproxy.New(p.K.Audio, p.DF, p.Chan.Queue(0), name))
	})
}

// RegisterBlockDev implements api.EnvBlock for the untrusted host: a block
// proxy is created in the kernel with the media geometry mirrored at
// registration (§3.3), and its per-queue shared-slot pools become distinct
// device-file allocations in the process's IOMMU domain.
func (e *env) RegisterBlockDev(name string, geom api.BlockGeometry, dev api.BlockDevice) (api.BlockKernel, error) {
	return register[api.BlockKernel](e, geom, dev, &e.p.blockdev, func(p *Process) (*class, error) {
		ki := &blkproxy.KernelIface{Acct: p.K.Acct, Mem: p.K.M.Mem, Blk: p.K.Blk}
		return p.blkClass(blkproxy.New(ki, p.DF, p.Chan, name, geom))
	})
}

// umlBlockKernel is the driver-side api.BlockKernel: completions cross the
// channel as shared-buffer references, batched per queue.
type umlBlockKernel struct {
	p     *Process
	comps *refBatch[blkproxy.CompRef]
}

var _ api.BlockKernel = (*umlBlockKernel)(nil)

// Complete forwards one I/O completion to the real kernel. If the read
// payload is a view of the driver's DMA memory (it is, for queue-pair
// drivers), only the buffer reference crosses the channel — the zero-copy
// path of §3.1.2; the kernel-side guard copy happens in the proxy. On
// multi-queue channels references accumulate into per-queue batches (up to
// blkproxy.MaxBlkBatch per message); a single-queue channel keeps one
// message per completion, like the paper's transport.
func (bk *umlBlockKernel) Complete(q int, tag uint64, err error, data []byte) {
	p := bk.p
	if p.killed {
		return
	}
	if q < 0 || q >= len(p.QueueAccts) {
		q = 0
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	p.K.M.Trace.Event(trace.ClassBlk, q, tag, trace.HopDrvComplete)
	if fo, ok := p.flushMeta[tag]; ok {
		// A flush barrier: deliver every completion gathered before the
		// barrier ack, then echo the OpFlush frame back with the status —
		// the proxy's barrier accounting verifies the echo.
		delete(p.flushMeta, tag)
		bk.comps.flush()
		if err != nil {
			fo.Status = 1
		}
		_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpFlushDone, Data: blkproxy.EncodeFlushOp(fo)})
		return
	}
	comp := p.completionRef(tag, err, data)
	var inline []byte
	if comp.IOVA == 0 && len(data) > 0 && err == nil {
		// Slice identity lost (the payload is not a registered DMA
		// view): bounce it inline on either transport — a zero
		// reference in the batch framing would read as a write
		// completion. The ring copies it into its slot.
		p.BouncedRx++
		p.QueueAccts[q].Charge(sim.Copy(len(data)))
		inline = data
	} else if p.batching() {
		bk.comps.add(q, comp)
		return
	}
	_ = p.Chan.DownQ(q, uchan.Msg{Op: blkproxy.OpComplete, Data: inline,
		Args: [6]uint64{comp.Tag, uint64(comp.Status), comp.IOVA, uint64(comp.Len), p.qep[q]}})
}

// completionRef builds the wire form of one completion: successful reads
// resolve the payload view back to its bus address for the zero-copy
// reference; failures carry a bare status.
func (p *Process) completionRef(tag uint64, err error, data []byte) blkproxy.CompRef {
	comp := blkproxy.CompRef{Tag: tag}
	if err != nil {
		comp.Status = 1
		return comp
	}
	if len(data) == 0 {
		return comp // write completion
	}
	if iova, ok := p.sliceAddrs[&data[0]]; ok {
		p.ZeroCopyRx++
		comp.IOVA = uint64(iova)
		comp.Len = uint32(len(data))
	}
	return comp
}

// WakeQueueQ implements api.BlockKernel: queue q's hardware queue regained
// space.
func (bk *umlBlockKernel) WakeQueueQ(q int) { bk.p.wakeQueue(q, blkproxy.OpWakeQueue) }

// umlAudioKernel is the driver-side api.AudioKernel.
type umlAudioKernel struct {
	p *Process
}

var _ api.AudioKernel = (*umlAudioKernel)(nil)

// PeriodElapsed forwards the latency-critical refill cue; it flushes
// immediately rather than waiting for batching, because a late period is an
// audible underrun (§4.1 real-time scheduling).
func (ak *umlAudioKernel) PeriodElapsed() {
	ak.p.notify(audioproxy.OpPeriodElapsed, nil)
	ak.p.Chan.Flush()
}

// XRun reports an underrun.
func (ak *umlAudioKernel) XRun() { ak.p.notify(audioproxy.OpXRun, nil) }

// notify sends one state-mirroring downcall (§3.3) on the first ring.
func (p *Process) notify(op uint32, data []byte) {
	p.Acct.Charge(sim.CostUMLCall)
	_ = p.Chan.Down(uchan.Msg{Op: op, Data: data})
}

// umlWifiKernel is the driver-side api.WifiKernel: every notification is a
// downcall synchronising mirrored kernel state (§3.3).
type umlWifiKernel struct {
	p *Process
}

var _ api.WifiKernel = (*umlWifiKernel)(nil)

func (wk *umlWifiKernel) NetifRx(frame []byte) {
	p := wk.p
	if p.killed || len(frame) == 0 || len(frame) > wifiproxy.MaxFrame {
		return
	}
	p.Acct.Charge(sim.CostUMLCall + sim.Copy(len(frame)))
	_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpNetifRx, Data: frame})
}

func (wk *umlWifiKernel) ScanDone(results []api.BSS) {
	wk.p.notify(wifiproxy.OpScanDone, wifiproxy.EncodeBSSList(results))
}

func (wk *umlWifiKernel) Associated(ssid string) { wk.p.notify(wifiproxy.OpAssociated, []byte(ssid)) }
func (wk *umlWifiKernel) Disassociated()         { wk.p.notify(wifiproxy.OpDisassociated, nil) }

// --- DMA buffers ----------------------------------------------------------------

// umlDMA is driver-process DMA memory: the same physical pages are mapped
// into the process, the kernel, and the device's IOMMU domain, at a bus
// address equal to the process virtual address (§4.1).
type umlDMA struct {
	p    *Process
	a    *pciaccess.Alloc
	size int
}

func (b *umlDMA) BusAddr() mem.Addr { return b.a.IOVA }
func (b *umlDMA) Size() int         { return b.size }

// touch routes a driver-side access through the safe PCI module's page-flip
// bookkeeping: on a revoked page the process's mapping is gone, so the access
// faults (recorded as evidence) instead of reading kernel-owned bytes. Gated
// on RevokedPages so a process that never flips pays nothing.
func (b *umlDMA) touch(off, n int, write bool) error {
	if b.p.DF.RevokedPages() == 0 {
		return nil
	}
	_, err := b.p.DF.DriverTouch(b.a.IOVA+mem.Addr(off), n, write)
	return err
}

func (b *umlDMA) Read(off int, p []byte) error {
	if err := b.access(off, p, false); err != nil {
		return err
	}
	return b.p.K.M.Mem.Read(b.a.Phys+mem.Addr(off), p)
}

func (b *umlDMA) Write(off int, p []byte) error {
	if err := b.access(off, p, true); err != nil {
		return err
	}
	return b.p.K.M.Mem.Write(b.a.Phys+mem.Addr(off), p)
}

// access checks a driver copy of p at off and charges it.
func (b *umlDMA) access(off int, p []byte, write bool) error {
	if off < 0 || off+len(p) > b.size {
		return fmt.Errorf("sudml: DMA access out of bounds")
	}
	if err := b.touch(off, len(p), write); err != nil {
		return err
	}
	b.p.Acct.Charge(sim.Copy(len(p)))
	return nil
}

// maxSliceAddrs bounds the slice-identity table; past it the table is
// cleared (a view handed out before then just bounces instead of going
// zero-copy).
const maxSliceAddrs = 8192

func (b *umlDMA) Slice(off, n int) ([]byte, bool) {
	if off < 0 || n <= 0 || off+n > b.size {
		return nil, false
	}
	if b.touch(off, n, true) != nil {
		return nil, false
	}
	view, ok := b.p.K.M.Mem.Slice(b.a.Phys+mem.Addr(off), n)
	if !ok {
		return nil, false
	}
	// Remember the view's identity so netif_rx can recover the bus
	// address for the zero-copy downcall.
	if len(b.p.sliceAddrs) > maxSliceAddrs {
		clear(b.p.sliceAddrs) // keeps the table, so refilling it never regrows
	}
	b.p.sliceAddrs[&view[0]] = b.a.IOVA + mem.Addr(off)
	return view, true
}

// --- NetKernel (driver → "kernel" inside SUD-UML) --------------------------------

type umlNetKernel struct {
	p  *Process
	rx *refBatch[ethproxy.RxRef]
}

var _ api.NetKernel = (*umlNetKernel)(nil)

// NetifRx forwards a received frame to the real kernel: the frame arrived
// on RX ring q and is delivered on queue q's uchan ring, charged to queue
// q's service account. If the frame is a view of the driver's DMA memory
// (it is, for ring-based drivers), only the buffer reference crosses the
// channel — the zero-copy path of §3.1.2; the kernel-side guard copy
// happens in the proxy, fused with checksumming. On multi-queue channels
// zero-copy references accumulate into a per-queue batch (up to
// ethproxy.MaxRxBatch per message) instead of paying one downcall per
// frame; a single-queue channel keeps the paper's exact
// one-message-per-frame transport.
func (nk *umlNetKernel) NetifRx(frame []byte, q int) {
	p := nk.p
	if len(frame) == 0 || p.killed {
		return
	}
	if q < 0 || q >= len(p.QueueAccts) {
		q = 0
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	iova, ok := p.sliceAddrs[&frame[0]]
	var inline []byte
	if ok {
		p.ZeroCopyRx++
		p.K.M.Trace.Event(trace.ClassNetRx, q, uint64(iova), trace.HopUchanEnq)
		if p.batching() {
			nk.rx.add(q, ethproxy.RxRef{IOVA: uint64(iova), Len: uint32(len(frame))})
			return
		}
	} else {
		// Fallback: bounce through an inline copy in the message (the
		// ring copies it into its slot).
		p.BouncedRx++
		p.QueueAccts[q].Charge(sim.Copy(len(frame)))
		inline = frame
	}
	_ = p.Chan.DownQ(q, uchan.Msg{Op: ethproxy.OpNetifRx, Data: inline, Args: [6]uint64{uint64(iova), uint64(len(frame))}})
}

// CarrierOn mirrors link state to the kernel (§3.3 shared-memory state).
func (nk *umlNetKernel) CarrierOn() { nk.p.notify(ethproxy.OpCarrierOn, nil) }

// CarrierOff mirrors link state to the kernel.
func (nk *umlNetKernel) CarrierOff() { nk.p.notify(ethproxy.OpCarrierOff, nil) }

// WakeQueue mirrors TX queue state to the kernel: queue q's device ring
// regained space.
func (nk *umlNetKernel) WakeQueue(q int) { nk.p.wakeQueue(q, ethproxy.OpWakeQueue) }

// wakeQueue sends a class's wake downcall for hardware queue q. It rides
// queue q's own ring and names the queue, so the proxy releases only that
// queue's kernel context.
func (p *Process) wakeQueue(q int, op uint32) {
	if q < 0 || q >= len(p.QueueAccts) {
		q = 0
	}
	p.QueueAccts[q].Charge(sim.CostUMLCall)
	_ = p.Chan.DownQ(q, uchan.Msg{Op: op, Args: [6]uint64{uint64(q)}})
}
