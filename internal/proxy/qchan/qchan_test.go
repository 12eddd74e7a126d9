package qchan_test

import (
	"testing"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/api"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/ethproxy"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/proxy/qchan"
	"sud/internal/uchan"
)

var mac = [6]byte{2, 0, 0, 0, 0, 7}

// Test op codes; any distinct values work, the chassis only echoes them.
const (
	opRecycle uint32 = 200 + iota
	opQState
	opAck
	opWake
)

const per = 8

// fakeObj is a kernel object whose epochs the test moves by hand.
type fakeObj struct {
	epoch uint64
	q     []uint64
}

func (o *fakeObj) Epoch() uint64           { return o.epoch }
func (o *fakeObj) QueueEpoch(q int) uint64 { return o.q[q] }

type rig struct {
	m       *hw.Machine
	k       *kernel.Kernel
	df      *pciaccess.DeviceFile
	mc      *uchan.MultiChan
	c       *qchan.Chassis
	obj     *fakeObj
	upcalls []uchan.Msg
	woken   []int
}

func newRig(t *testing.T, queues int) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, mac, e1000.MultiQueueParams(queues))
	m.AttachDevice(nic)
	accts := m.CPU.QueueAccounts("driver:test", queues)
	r := &rig{m: m, k: k, df: pciaccess.Open(k, nic, 1001, accts[0]), mc: uchan.NewMulti(m.Loop, k.Acct, accts)}
	r.mc.SetDriverHandler(func(_ int, msg uchan.Msg) (uchan.Msg, bool) {
		r.upcalls = append(r.upcalls, msg)
		return uchan.Msg{Seq: msg.Seq}, true
	})
	r.c = &qchan.Chassis{}
	err := r.c.Init(k.Acct, r.df, r.mc, qchan.Config{Class: "test", Pool: "test", SlotsPerQueue: per, SlotSize: 2048,
		Ops: qchan.Ops{PageRecycle: opRecycle, QueueEpoch: opQState, RecycleAck: opAck, WakeQueue: opWake}})
	if err != nil {
		t.Fatal(err)
	}
	r.obj = &fakeObj{q: make([]uint64, queues)}
	r.c.Attach(r.obj, func(q int) { r.woken = append(r.woken, q) })
	return r
}

// take commits n slots on queue q and returns them in commit order.
func (r *rig) take(t *testing.T, q, n int) []int {
	t.Helper()
	var slots []int
	for i := 0; i < n; i++ {
		want, ok := r.c.NextSlot(q)
		if !ok {
			t.Fatalf("queue %d empty after %d takes", q, i)
		}
		if got := r.c.Commit(q); got != want {
			t.Fatalf("Commit took slot %d, NextSlot promised %d", got, want)
		}
		slots = append(slots, want)
	}
	return slots
}

// A credit must name a slot that is in flight: a free slot, a slot out of
// range and a second credit for the same slot are all rejected and counted,
// and none of them frees anything.
func TestCreditRejectsFreeAndOutOfRangeSlots(t *testing.T) {
	r := newRig(t, 2)
	slots := r.take(t, 1, 2)
	free := r.c.FreeSlots()
	for _, bad := range []int{0, per, -1, 2 * per, 1 << 40} {
		if _, ok := r.c.Credit(bad); ok {
			t.Errorf("credit for slot %d accepted", bad)
		}
	}
	if r.c.UpcallErrors != 5 {
		t.Fatalf("UpcallErrors = %d, want 5", r.c.UpcallErrors)
	}
	q, ok := r.c.Credit(slots[0])
	if !ok || q != 1 {
		t.Fatalf("in-flight credit: q=%d ok=%v", q, ok)
	}
	r.c.Release(slots[0])
	if _, ok := r.c.Credit(slots[0]); ok {
		t.Fatal("second credit for a released slot accepted")
	}
	if r.c.UpcallErrors != 6 || r.c.FreeSlots() != free+1 {
		t.Fatalf("after double credit: errors=%d free=%d, want 6/%d", r.c.UpcallErrors, r.c.FreeSlots(), free+1)
	}
}

// RearmQueue reclaims exactly the re-armed queue's in-flight slots — its
// whole partition free again, in index order — while a sibling's in-flight
// slots and stall are untouched, and announces the new epoch.
func TestRearmQueueReclaimsOnlyItsQueue(t *testing.T) {
	r := newRig(t, 2)
	old := r.take(t, 0, 3)
	sib := r.take(t, 1, per)
	if _, ok := r.c.NextSlot(1); ok {
		t.Fatal("exhausted queue 1 offered a slot")
	}
	r.obj.q[0] = 4
	r.c.RearmQueue(0)
	if r.c.QueueFreeSlots(0) != per || r.c.QueueFreeSlots(1) != 0 {
		t.Fatalf("free after rearm: q0=%d q1=%d", r.c.QueueFreeSlots(0), r.c.QueueFreeSlots(1))
	}
	if r.c.QueueEpochMirror(0) != 4 || r.c.QueueStale(0) {
		t.Fatalf("mirror %d after rearm at 4", r.c.QueueEpochMirror(0))
	}
	// A late credit for a slot the dead incarnation held is rejected.
	if _, ok := r.c.Credit(old[0]); ok || r.c.UpcallErrors != 1 {
		t.Fatalf("late credit for a reclaimed slot: ok=%v errors=%d", ok, r.c.UpcallErrors)
	}
	// Slots are taken from the end of a free list laid out in index
	// order, so the partition comes back highest index first.
	for i, s := range r.take(t, 0, per) {
		if s != per-1-i {
			t.Fatalf("take %d after rearm = slot %d, want %d", i, s, per-1-i)
		}
	}
	// Queue 1 stayed stalled: it wakes only at its own threshold.
	for i, s := range sib[:r.c.WakeThreshold()] {
		if len(r.woken) != 0 {
			t.Fatalf("woke after %d releases, threshold %d", i, r.c.WakeThreshold())
		}
		r.c.Release(s)
	}
	if len(r.woken) != 1 || r.woken[0] != 1 {
		t.Fatalf("wakes = %v, want [1]", r.woken)
	}
	r.m.Loop.Run()
	if len(r.upcalls) != 1 || r.upcalls[0].Op != opQState {
		t.Fatalf("upcalls = %+v, want one qstate frame", r.upcalls)
	}
	s, err := protocol.DecodeQState(r.upcalls[0].Data)
	if err != nil || s.Queue != 0 || s.Epoch != 4 || !s.Armed() {
		t.Fatalf("qstate frame %+v, %v", s, err)
	}
}

// The recycle lane returns a page lent twice once, splits a flush larger
// than one frame, and credits only well-formed acks of the live epoch.
func TestRecycleLane(t *testing.T) {
	r := newRig(t, 1)
	r.c.Lend(0, 0x10000)
	r.c.Lend(0, 0x10000)
	if r.c.PendingRecyclePages() != 1 {
		t.Fatalf("pending = %d after lending one page twice", r.c.PendingRecyclePages())
	}
	for i := 1; i <= protocol.MaxRecyclePages; i++ {
		r.c.Lend(0, 0x10000+uint64(i)*0x1000)
	}
	r.c.FlushRecycle()
	r.m.Loop.Run()
	if r.c.PendingRecyclePages() != 0 || r.c.RecycleUpcalls != 2 || len(r.upcalls) != 2 {
		t.Fatalf("flush: pending=%d upcalls=%d delivered=%d, want 0/2/2",
			r.c.PendingRecyclePages(), r.c.RecycleUpcalls, len(r.upcalls))
	}
	total := 0
	for _, u := range r.upcalls {
		_, pages, err := protocol.DecodeRecycle(u.Data)
		if err != nil {
			t.Fatal(err)
		}
		total += len(pages)
	}
	if total != protocol.MaxRecyclePages+1 {
		t.Fatalf("returned %d pages, want %d", total, protocol.MaxRecyclePages+1)
	}
	// A page returned by the flush can be lent again.
	r.c.Lend(0, 0x10000)
	if r.c.PendingRecyclePages() != 1 {
		t.Fatal("flushed page not lendable again")
	}

	r.c.HandleShared(uchan.Msg{Op: opAck, Data: r.upcalls[0].Data})
	if r.c.RecycleAcks != protocol.MaxRecyclePages {
		t.Fatalf("acks = %d", r.c.RecycleAcks)
	}
	r.c.HandleShared(uchan.Msg{Op: opAck, Data: protocol.EncodeRecycle(uint32(r.c.Epoch())+1, []uint64{0x10000})})
	r.c.HandleShared(uchan.Msg{Op: opAck, Data: []byte{1, 0}})
	if r.c.RecycleStaleAck != 1 || r.c.RecycleBadAck != 1 || r.c.RecycleAcks != protocol.MaxRecyclePages {
		t.Fatalf("stale=%d bad=%d acks=%d", r.c.RecycleStaleAck, r.c.RecycleBadAck, r.c.RecycleAcks)
	}
}

// A downcall from a dead incarnation is rejected by both classes through the
// chassis fence, before any class handling runs: nothing is credited and
// nothing but the class's stale counter moves.
func TestDeadIncarnationRejectedByBothClasses(t *testing.T) {
	r := newRig(t, 1)
	eth, err := ethproxy.New(&ethproxy.KernelIface{Acct: r.k.Acct, Mem: r.m.Mem, Net: r.k.Net}, r.df, r.mc, "eth0", mac)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := blkproxy.New(&blkproxy.KernelIface{Acct: r.k.Acct, Mem: r.m.Mem, Blk: r.k.Blk}, r.df, r.mc, "nvme0",
		api.BlockGeometry{BlockSize: 4096, Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.Net.BeginRecovery("eth0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.k.Blk.BeginRecovery("nvme0"); err != nil {
		t.Fatal(err)
	}
	ack := protocol.EncodeRecycle(uint32(eth.Epoch()), []uint64{0x10000})
	for _, m := range []uchan.Msg{
		{Op: ethproxy.OpXmitDone, Args: [6]uint64{0}},
		{Op: ethproxy.OpRecycleAck, Data: ack},
		{Op: ethproxy.OpWakeQueue},
	} {
		eth.HandleDowncall(0, m)
	}
	for _, m := range []uchan.Msg{
		{Op: blkproxy.OpComplete, Args: [6]uint64{99}},
		{Op: blkproxy.OpRecycleAck, Data: ack},
		{Op: blkproxy.OpWakeQueue},
	} {
		blk.HandleDowncall(0, m)
	}
	if eth.RxStaleEpoch != 3 || eth.StaleEpochDowncalls() != 3 || blk.CompStaleEpoch != 3 || blk.StaleEpochDowncalls() != 3 {
		t.Fatalf("stale: eth=%d blk=%d, want 3/3", eth.RxStaleEpoch, blk.CompStaleEpoch)
	}
	if eth.UpcallErrors+eth.RecycleAcks+blk.UpcallErrors+blk.RecycleAcks+blk.CompBadTag != 0 {
		t.Fatal("a dead incarnation's downcall reached class handling")
	}
}

// TestRenamedObjectReadoptedByBothClasses pins the one adoption rule, exact
// name plus equal identity: a restarted driver asking for the name it was
// first given finds its recovering object under the name the template walk
// gave it, while the live object holding the requested name is untouched.
func TestRenamedObjectReadoptedByBothClasses(t *testing.T) {
	r := newRig(t, 1)
	macB := [6]byte{2, 0, 0, 0, 0, 8}
	eki := &ethproxy.KernelIface{Acct: r.k.Acct, Mem: r.m.Mem, Net: r.k.Net}
	live, err := ethproxy.New(eki, r.df, r.mc, "eth0", mac)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := ethproxy.New(eki, r.df, r.mc, "eth0", macB)
	if err != nil || dead.Ifc.Name != "eth1" {
		t.Fatalf("second NIC: %v", err)
	}
	if _, err := r.k.Net.BeginRecovery("eth1"); err != nil {
		t.Fatal(err)
	}
	restarted, err := ethproxy.New(eki, r.df, r.mc, "eth0", macB)
	if err != nil {
		t.Fatal(err)
	}
	if restarted.Ifc != dead.Ifc || live.Ifc.Recovering() {
		t.Fatalf("restarted NIC bound %q, want the recovering eth1 object", restarted.Ifc.Name)
	}

	geomA := api.BlockGeometry{BlockSize: 4096, Blocks: 1024}
	geomB := api.BlockGeometry{BlockSize: 4096, Blocks: 2048}
	bki := &blkproxy.KernelIface{Acct: r.k.Acct, Mem: r.m.Mem, Blk: r.k.Blk}
	liveDisk, err := blkproxy.New(bki, r.df, r.mc, "nvme0", geomA)
	if err != nil {
		t.Fatal(err)
	}
	deadDisk, err := blkproxy.New(bki, r.df, r.mc, "nvme0", geomB)
	if err != nil || deadDisk.Dev.Name != "nvme1" {
		t.Fatalf("second disk: %v", err)
	}
	if _, err := r.k.Blk.BeginRecovery("nvme1"); err != nil {
		t.Fatal(err)
	}
	restartedDisk, err := blkproxy.New(bki, r.df, r.mc, "nvme0", geomB)
	if err != nil {
		t.Fatal(err)
	}
	if restartedDisk.Dev != deadDisk.Dev || liveDisk.Dev.Recovering() {
		t.Fatalf("restarted disk bound %q, want the recovering nvme1 object", restartedDisk.Dev.Name)
	}
}
