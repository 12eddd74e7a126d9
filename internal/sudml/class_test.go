package sudml_test

import (
	"bytes"
	"testing"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/api"
	"sud/internal/drivers/e1000e"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/ethproxy"
	"sud/internal/proxy/protocol"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/sudml/policy"
	"sud/internal/trace"
	"sud/internal/uchan"
)

var (
	nicMAC  = netstack.MAC{0x00, 0x1B, 0x21, 0x11, 0x22, 0x33}
	hostMAC = netstack.MAC{0x00, 0x1B, 0x21, 0x44, 0x55, 0x66}
	nicIP   = netstack.IP{10, 0, 0, 1}
	hostIP  = netstack.IP{10, 0, 0, 2}
)

// echoHost answers UDP port 7 on the far end of the link.
type echoHost struct {
	link *ethlink.Link
	loop *sim.Loop
}

func (h *echoHost) LinkDeliver(frame []byte) {
	eh, ipPkt, err := netstack.ParseEth(frame)
	if err != nil || eh.EtherType != netstack.EtherTypeIPv4 {
		return
	}
	ih, l4, err := netstack.ParseIPv4(ipPkt)
	if err != nil || ih.Proto != netstack.ProtoUDP {
		return
	}
	uh, payload, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true)
	if err != nil || uh.DstPort != 7 {
		return
	}
	reply := netstack.BuildUDPFrame(hostMAC, netstack.MAC(eh.Src), ih.Dst, ih.Src, 7, uh.SrcPort, payload)
	h.loop.After(5*sim.Microsecond, func() { _ = h.link.Send(1, reply) })
}

// netWorld is one machine with an e1000 wired to an echo host, driven by an
// untrusted e1000e process over a Q-ring channel, supervised or not.
type netWorld struct {
	m       *hw.Machine
	k       *kernel.Kernel
	sup     *sudml.Supervisor // nil when unsupervised
	proc    *sudml.Process
	replies int
}

func newNetWorld(t *testing.T, drv api.Driver, queues int, supervised bool) *netWorld {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, [6]byte(nicMAC), e1000.MultiQueueParams(queues))
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(nic, &echoHost{link: link, loop: m.Loop})
	nic.AttachLink(link, 0)
	w := &netWorld{m: m, k: k}
	var err error
	if supervised {
		w.sup, err = sudml.SuperviseNetQ(k, nic, drv, "e1000e", "eth0", 1001, queues)
	} else {
		w.proc, err = sudml.StartQ(k, nic, drv, "e1000e", 1001, queues)
	}
	if err != nil {
		t.Fatal(err)
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(nicIP); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Net.UDPBind(5000, func([]byte, netstack.IP, uint16) { w.replies++ }); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(50 * sim.Microsecond)
	return w
}

// driver is the live driver incarnation.
func (w *netWorld) driver() *sudml.Process {
	if w.sup != nil {
		return w.sup.Proc()
	}
	return w.proc
}

// echo sends n pings 50 µs apart and reports how many replies came back.
func (w *netWorld) echo(t *testing.T, n int) int {
	t.Helper()
	ifc, err := w.k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	before := w.replies
	for i := 0; i < n; i++ {
		if err := w.k.Net.UDPSendTo(ifc, hostMAC, hostIP, 5000, 7, []byte("ping")); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		w.m.Loop.RunFor(50 * sim.Microsecond)
	}
	w.m.Loop.RunFor(2 * sim.Millisecond)
	return w.replies - before
}

// TestFailoverNetInvisible: a hot standby armed on a supervised NIC takes
// over a kill -9 by promotion — the interface keeps its identity, an echo
// sent after the kill comes back, and a fresh standby is re-armed.
func TestFailoverNetInvisible(t *testing.T) {
	for _, queues := range []int{1, 4} {
		w := newNetWorld(t, e1000e.NewQ(queues), queues, true)
		if err := w.sup.ArmStandby(); err != nil {
			t.Fatalf("Q=%d: arm standby: %v", queues, err)
		}
		if sb := w.sup.StandbyProc(); sb == nil || !sb.Standby() {
			t.Fatalf("Q=%d: standby not armed", queues)
		}
		if got := w.echo(t, 10); got != 10 {
			t.Fatalf("Q=%d: %d of 10 echoes before the kill", queues, got)
		}
		primary := w.sup.Proc()
		primary.Kill()
		w.m.Loop.RunFor(20 * sim.Millisecond)

		if w.sup.Failovers != 1 {
			t.Fatalf("Q=%d: failovers = %d, want 1", queues, w.sup.Failovers)
		}
		if w.sup.LastVerdict != policy.Failover {
			t.Fatalf("Q=%d: last verdict = %v, want failover", queues, w.sup.LastVerdict)
		}
		if w.sup.Proc() == primary || w.sup.Proc().Eth == primary.Eth {
			t.Fatalf("Q=%d: supervisor did not swap to the standby", queues)
		}
		if got := w.echo(t, 1); got != 1 {
			t.Fatalf("Q=%d: echo after the kill did not arrive", queues)
		}
		if sb := w.sup.StandbyProc(); sb == nil || !sb.Standby() {
			t.Fatalf("Q=%d: no standby re-armed after failover", queues)
		}
		assertFlightOrder(t, w.sup.Flight.Kinds(),
			trace.FKill, trace.FPark, trace.FDetect, trace.FVerdict,
			trace.FPromote, trace.FAdopt, trace.FReplay)
		w.sup.Stop()
	}
}

// TestSupervisedFlipNICSurvivesRestart is the regression test for a
// restarted page-aware NIC driver: its RX buffers are re-armed only when the
// proxy lends and recycles their pages, so every incarnation must face a
// page-flip proxy, or the ring starves after one fill (255 of 1000 echoes).
func TestSupervisedFlipNICSurvivesRestart(t *testing.T) {
	w := newNetWorld(t, e1000e.NewFlipQ(1), 1, true)
	w.sup.Proc().Eth.GuardMode = ethproxy.GuardPageFlip
	if got := w.echo(t, 1000); got != 1000 {
		t.Fatalf("%d of 1000 echoes before the kill", got)
	}
	w.sup.Proc().Kill()
	w.m.Loop.RunFor(10 * sim.Millisecond)
	if w.sup.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", w.sup.Restarts)
	}
	if gm := w.sup.Proc().Eth.GuardMode; gm != ethproxy.GuardPageFlip {
		t.Fatalf("restarted proxy guard mode %d, want page flip", gm)
	}
	if got := w.echo(t, 1000); got != 1000 {
		t.Fatalf("%d of 1000 echoes after the restart", got)
	}
	// The standby path inherits the mode too.
	if err := w.sup.ArmStandby(); err != nil {
		t.Fatal(err)
	}
	if gm := w.sup.StandbyProc().Eth.GuardMode; gm != ethproxy.GuardPageFlip {
		t.Fatalf("armed standby guard mode %d, want page flip", gm)
	}
	w.sup.Stop()
}

// hostileOps is every op a driver might put on a downcall slot: the whole
// assigned space and then some.
func hostileOps() []uint32 {
	ops := []uint32{0xFFFF, 0xFFFFFFFF}
	for op := uint32(0); op < 256; op++ {
		ops = append(ops, op)
	}
	return ops
}

// sweep sends every hostile op on ring q, once with zero arguments and once
// with all bits set, and checks the class proxy's unknown-downcall counter:
// an op in the class's range that nothing names counts once, any other op
// outside the range counts nothing. named lists the downcalls the proxy and
// its chassis handle (they are validated by their own counters).
func sweep(t *testing.T, proc *sudml.Process, q int, errs *uint64, lo, hi uint32, named ...uint32) {
	t.Helper()
	isNamed := map[uint32]bool{}
	for _, op := range named {
		isNamed[op] = true
	}
	for _, args := range [][6]uint64{{}, {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}} {
		for _, op := range hostileOps() {
			before := *errs
			if err := proc.Chan.DownQ(q, uchan.Msg{Op: op, Args: args}); err != nil {
				t.Fatalf("op %#x: %v", op, err)
			}
			proc.Chan.Flush()
			got := *errs - before
			switch {
			case isNamed[op] || op == protocol.OpIRQAck:
			case op >= lo && op <= hi:
				if got != 1 {
					t.Fatalf("unknown in-range op %#x counted %d times, want 1", op, got)
				}
			case got != 0:
				t.Fatalf("out-of-range op %#x counted %d times, want 0", op, got)
			}
		}
	}
}

// refused checks that a kernel-side upcall of op is answered "not handled"
// by a process whose op table does not name it.
func refused(t *testing.T, proc *sudml.Process, op uint32) {
	t.Helper()
	reply, err := proc.Chan.Send(uchan.Msg{Op: op})
	if err != nil {
		t.Fatalf("upcall %#x: %v", op, err)
	}
	if reply.Args[0] != 1 {
		t.Fatalf("upcall %#x answered %d, want 1 (not handled)", op, reply.Args[0])
	}
}

// TestHostileDowncallOps drives a net and a block process with every op
// from the driver side: nothing panics, nothing is delivered, unknown ops
// are counted exactly where the class's range says, and traffic still
// flows on every ring afterwards. Upcall ops no table names — other
// classes' ops and ops past every table — are answered "not handled".
func TestHostileDowncallOps(t *testing.T) {
	t.Run("net", func(t *testing.T) {
		w := newNetWorld(t, e1000e.NewQ(2), 2, false)
		eth := w.proc.Eth
		frames := eth.RxQueueFrames[0] + eth.RxQueueFrames[1]
		for q := 0; q < 2; q++ {
			sweep(t, w.proc, q, &eth.UpcallErrors, protocol.EthBase, protocol.WifiBase-1,
				ethproxy.OpNetifRx, ethproxy.OpXmitDone, ethproxy.OpCarrierOn, ethproxy.OpCarrierOff,
				ethproxy.OpWakeQueue, ethproxy.OpNetifRxBatch, ethproxy.OpRecycleAck)
		}
		w.m.Loop.RunFor(sim.Millisecond)
		if got := eth.RxQueueFrames[0] + eth.RxQueueFrames[1]; got != frames || w.replies != 0 {
			t.Fatalf("hostile downcalls delivered %d frames, %d datagrams", got-frames, w.replies)
		}
		for _, op := range []uint32{0, 3, protocol.WifiBase, protocol.BlockBase, 255, 0xFFFF, 0xFFFFFFFF} {
			refused(t, w.proc, op)
		}
		if got := w.echo(t, 20); got != 20 {
			t.Fatalf("%d of 20 echoes after the sweep", got)
		}
	})
	t.Run("block", func(t *testing.T) {
		w := newBlkWorld(t, 2)
		bp := w.proc.Blk
		comps := bp.QueueComps[0] + bp.QueueComps[1]
		for q := 0; q < 2; q++ {
			sweep(t, w.proc, q, &bp.UpcallErrors, protocol.BlockBase, ^uint32(0),
				blkproxy.OpComplete, blkproxy.OpCompleteBatch, blkproxy.OpWakeQueue,
				blkproxy.OpFlushDone, blkproxy.OpRecycleAck)
		}
		if got := bp.QueueComps[0] + bp.QueueComps[1]; got != comps {
			t.Fatalf("hostile downcalls delivered %d completions", got-comps)
		}
		// Ethernet upcalls used to reach a nil net device in a block
		// process; the block table does not name them.
		for _, op := range []uint32{0, 3, ethproxy.OpOpen, ethproxy.OpXmit, protocol.WifiBase, 255, 0xFFFF, 0xFFFFFFFF} {
			refused(t, w.proc, op)
		}
		for q := 0; q < 2; q++ {
			lba := uint64(10 + q)
			w.ctrl.SeedMedia(lba, block(byte(lba)))
			var got []byte
			if err := w.dev.ReadAtQ(lba, q, func(data []byte, err error) {
				if err == nil {
					got = append([]byte(nil), data...)
				}
			}); err != nil {
				t.Fatal(err)
			}
			w.m.Loop.RunFor(2 * sim.Millisecond)
			if !bytes.Equal(got, block(byte(lba))) {
				t.Fatalf("queue %d read after the sweep failed", q)
			}
		}
	})
}
