package main

import (
	"strings"

	"sud/internal/devices/e1000"
	"sud/internal/devices/nvme"
	"sud/internal/diskperf"
	"sud/internal/drivers/e1000e"
	"sud/internal/drivers/nvmed"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/kvserve"
	"sud/internal/kernel/netstack"
	"sud/internal/netperf"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/trace"
)

// Cores of the modelled server: the scale harnesses' server-class DUT, so
// the devices rather than the CPU bound the block and net workloads.
const benchCores = 16

// bed is one booted machine under load. The block half is nil on net-rx,
// the net half is nil on the blk-* workloads; kv-tenant has both.
type bed struct {
	m   *hw.Machine
	k   *kernel.Kernel
	app *sim.CPUAccount // the modelled application's CPU

	dev     *blockdev.Dev
	ctrl    *nvme.Ctrl
	blkProc func() *sudml.Process // the live driver incarnation

	nic     *e1000.NIC
	link    *ethlink.Link
	ifc     *netstack.Iface
	netProc func() *sudml.Process

	srv *kvserve.Server
}

func platform() hw.Platform {
	p := hw.DefaultPlatform()
	p.Cores = benchCores
	return p
}

// bootBlock boots SUD nvmed with the given queue count behind the copy
// guard: the block IOPS harness's testbed.
func bootBlock(queues int) (*bed, error) {
	tb, err := diskperf.NewTestbed(diskperf.ModeSUD, queues, platform())
	if err != nil {
		return nil, err
	}
	return &bed{m: tb.M, k: tb.K, app: tb.M.CPU.Account("app"),
		dev: tb.Dev, ctrl: tb.Ctrl, blkProc: func() *sudml.Process { return tb.Proc }}, nil
}

// bootNet boots SUD e1000e with `queues` RSS rings behind the fused
// checksum guard; peer is the wire-level endpoint on the far side of the
// gigabit link.
func bootNet(queues int, peer ethlink.Endpoint) (*bed, error) {
	m := hw.NewMachine(platform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, [6]byte(netperf.DUTMAC),
		e1000.MultiQueueParams(queues))
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)
	proc, err := sudml.StartQ(k, nic, e1000e.NewQ(queues), "e1000e", 1001, queues)
	if err != nil {
		return nil, err
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		return nil, err
	}
	if err := ifc.Up(netperf.DUTIP); err != nil {
		return nil, err
	}
	m.Loop.RunFor(100 * sim.Microsecond)
	return &bed{m: m, k: k, app: m.CPU.Account("app"), nic: nic, link: link, ifc: ifc,
		netProc: func() *sudml.Process { return proc }}, nil
}

// bootKV boots the tenant plane as the tenant harness does: supervised SUD
// e1000e and nvmed, `queues` queues end to end, and kvserve sharded over
// `tenants` tenants with write-through persistence.
func bootKV(tenants, queues int, peer ethlink.Endpoint) (*bed, error) {
	m := hw.NewMachine(platform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, [6]byte(netperf.DUTMAC),
		e1000.MultiQueueParams(queues))
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(queues))
	m.AttachDevice(ctrl)

	netSup, err := sudml.SuperviseNetQ(k, nic, e1000e.NewQ(queues), "e1000e", "eth0", 1001, queues)
	if err != nil {
		return nil, err
	}
	blkSup, err := sudml.SuperviseBlock(k, ctrl, nvmed.NewQ(queues), "nvmed", "nvme0", 1003, queues)
	if err != nil {
		return nil, err
	}
	b := &bed{m: m, k: k, app: m.CPU.Account("app"), ctrl: ctrl, nic: nic, link: link,
		blkProc: blkSup.Proc, netProc: netSup.Proc}
	if b.ifc, err = k.Net.Iface("eth0"); err != nil {
		return nil, err
	}
	if err := b.ifc.Up(netperf.DUTIP); err != nil {
		return nil, err
	}
	if b.dev, err = k.Blk.Dev("nvme0"); err != nil {
		return nil, err
	}
	if err := b.dev.Up(); err != nil {
		return nil, err
	}
	bpt := b.dev.Geom.Blocks / uint64(tenants)
	if bpt > 256 {
		bpt = 256
	}
	if b.srv, err = kvserve.New(k.Net, b.ifc, kvserve.Config{
		Tenants: tenants, PortBase: kvPortBase, ClientMAC: netperf.RemoteMAC,
		Store: b.dev, BlocksPerTenant: bpt,
	}); err != nil {
		return nil, err
	}
	m.Loop.RunFor(100 * sim.Microsecond)
	return b, nil
}

// procs lists the live driver processes.
func (b *bed) procs() []*sudml.Process {
	var ps []*sudml.Process
	if b.blkProc != nil {
		ps = append(ps, b.blkProc())
	}
	if b.netProc != nil {
		ps = append(ps, b.netProc())
	}
	return ps
}

// counters is one snapshot of every public counter the benchmark reads,
// keyed layer.name. Virtual-clock counters only; the host clock is sampled
// separately.
type counters map[string]int64

// cpuContext names the execution context a CPU account bills: driver
// processes' per-queue service threads (driver:nvmed/q0 …) fold into the
// driver, and accounts the benchmark does not report fold into "other".
func cpuContext(name string) string {
	name = strings.TrimPrefix(name, "driver:")
	if i := strings.Index(name, "/q"); i >= 0 {
		name = name[:i]
	}
	for _, a := range cpuAccounts {
		if a == name {
			return name
		}
	}
	return "other"
}

func (b *bed) snapshot() counters {
	c := counters{}
	hits, misses := b.m.IOMMU.TLBStats()
	c["iommu.tlb_hits"] = int64(hits)
	c["iommu.tlb_misses"] = int64(misses)
	c["iommu.walks"] = int64(b.m.IOMMU.Walks())
	c["mem.inuse"] = int64(b.m.Alloc.InUse())
	for _, name := range b.m.CPU.Names() {
		c["cpu."+cpuContext(name)] += int64(b.m.CPU.Account(name).Busy())
	}
	for _, p := range b.procs() {
		s := p.Chan.Stats()
		c["uchan.upcalls"] += int64(s.Upcalls + s.SyncUpcalls)
		c["uchan.downcalls"] += int64(s.Downcalls)
		c["uchan.doorbells"] += int64(s.Doorbells)
		c["uchan.wakeups"] += int64(s.Wakeups)
		c["uchan.spin_pickups"] += int64(s.SpinPickups)
		c["sudml.batches"] += int64(p.BlkBatches + p.RxBatches)
		if bp := p.Blk; bp != nil {
			c["blkproxy.guard_bytes"] += int64(bp.GuardCopiedBytes)
			c["blkproxy.rejects"] += int64(bp.CompInvalidRef + bp.CompBadLength + bp.CompBadTag +
				bp.CompBadBatch + bp.CompBadFlushFrame + bp.CompBadBarrier + bp.CompBarrierEarly +
				bp.CompStaleEpoch + bp.CompStaleQueueEpoch + bp.CompRevokedRef +
				bp.RecycleBadAck + bp.RecycleStaleAck)
		}
		if ep := p.Eth; ep != nil {
			c["ethproxy.guard_bytes"] += int64(ep.GuardCopiedBytes)
			c["ethproxy.rejects"] += int64(ep.RxInvalidRef + ep.RxBadLength + ep.RxBadBatch +
				ep.RxStaleEpoch + ep.RxStaleQueueEpoch + ep.RxRevokedRef +
				ep.RecycleBadAck + ep.RecycleStaleAck)
		}
	}
	if b.ctrl != nil {
		c["nvme.commands"] = int64(b.ctrl.Commands)
		c["nvme.sq_doorbells"] = int64(b.ctrl.SQDoorbellWrites)
		c["nvme.interrupts"] = int64(b.ctrl.InterruptsRaised)
	}
	if b.dev != nil {
		c["blockdev.bad_completions"] = int64(b.dev.BadCompletions)
	}
	if b.nic != nil {
		c["e1000.rx_drops_nodesc"] = int64(b.nic.RxDropsNoDesc)
		c["e1000.interrupts"] = int64(b.nic.InterruptsRaised)
		c["e1000.tail_writes"] = int64(b.nic.TDTWrites + b.nic.RDTWrites)
		_, _, d0 := b.link.Stats(0)
		_, _, d1 := b.link.Stats(1)
		c["ethlink.drops"] = int64(d0 + d1)
		c["netstack.rx_drops"] = int64(b.k.Net.RxDrops)
		for q := 0; q < b.ifc.NumQueues(); q++ {
			c["netstack.rx_drops"] += int64(b.ifc.Queue(q).ParkedRxDrops)
		}
		c["netstack.tx_errors"] = int64(b.k.Net.TxErrors)
	}
	if b.srv != nil {
		for t := 0; t < b.srv.Tenants(); t++ {
			c["kvserve.persist_errs"] += int64(b.srv.Tenant(t).PersistErrs)
		}
	}
	return c
}

// delta is after − before for every key of after.
func (c counters) delta(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// hists is one snapshot of the program's always-on latency histograms the
// benchmark reads, merged over queues: the block core's dispatch →
// completion histogram and the uchan ring-residency histograms in both
// directions.
type hists struct {
	blk, residency trace.Hist
}

func (b *bed) hists() hists {
	var h hists
	if b.dev != nil {
		for q := 0; q < b.dev.NumQueues(); q++ {
			h.blk.Merge(b.dev.QueueLatency(q))
		}
	}
	for _, p := range b.procs() {
		for q := 0; q < p.Chan.NumQueues(); q++ {
			up, down := p.Chan.QueueResidency(q)
			h.residency.Merge(&up)
			h.residency.Merge(&down)
		}
	}
	return h
}

func (h hists) sub(before hists) hists {
	return hists{blk: h.blk.Sub(&before.blk), residency: h.residency.Sub(&before.residency)}
}
