package sudml

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/kernel/shadow"
	"sud/internal/proxy/audioproxy"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/ethproxy"
	"sud/internal/proxy/protocol"
	"sud/internal/proxy/wifiproxy"
	"sud/internal/sim"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// class is the one device class a driver process binds (every driver
// registers exactly one device), held as data so the runtime and the
// supervisor host any class through the same paths (§3.3). It is built once,
// when the driver registers or a hot standby is armed.
type class struct {
	ops    []upcall                 // upcall handlers, indexed by op
	lo, hi uint32                   // the class's downcall op range (inclusive)
	down   func(q int, m uchan.Msg) // the proxy's downcall handler
	kernel any                      // the api.*Kernel the driver talks to
	batch  batcher                  // per-queue completion batches (nil: none)
	// recycler is the driver device's page-recycle hook, resolved once: a
	// type assertion per upcall may allocate (its call-site cache).
	recycler api.PageRecycler

	// The kernel object the proxy is bound to: its name ("" until a
	// standby's promotion binds it), its recovery surface, and the kernel
	// table it lives in. standbyID is an armed standby's identity (MAC or
	// geometry) awaiting its driver.
	name      string
	rd        api.RecoverableDevice
	objs      interface{ Unregister(name string) }
	standbyID any

	// The recovery half, nil for classes without one (wifi, audio). arm
	// builds sb's class as this object's standby and returns the identity
	// sb's driver must present at promotion.
	arm    func(sb *Process) (*class, any, error)
	attach func(f *trace.Flight) // shadow the object under supervision
	probe  func() bool           // active health probe: true if it fails
	qp     queueProxy
	guard  *int // the proxy's guard mode
}

// lifecycle is the recovery lifecycle of the recoverable classes' tables:
// one shadow.Table, embedded by netstack.Stack and blockdev.Manager.
type lifecycle interface {
	Unregister(name string)
	BeginRecovery(name string) (api.RecoverableDevice, error)
	UnregisterStandby(name string)
	PromoteStandby(name string) (api.RecoverableDevice, error)
	Quarantine(name string)
}

// life returns the class's recovery lifecycle (nil: the class has none).
func (c *class) life() lifecycle {
	l, _ := c.objs.(lifecycle)
	return l
}

// queueProxy is what the supervisor drives on a chassis-backed proxy: park
// and re-arm, and the zombie-incarnation evidence it harvests.
type queueProxy interface {
	ParkQueue(q int)
	RearmQueue(q int)
	StaleEpochDowncalls() uint64
}

func (c *class) bind(name string, rd api.RecoverableDevice) { c.name, c.rd = name, rd }

// register binds the registering driver's device dev (stored in slot, the
// process's typed field the op tables call) and its class (built by bind),
// and returns the api.*Kernel K the driver talks to. A promoted
// hot standby's class was armed before the kill and already serves the
// adopted object, so the probing driver joins it once its class and the
// identity it read back from the hardware (same EEPROM MAC, same media
// geometry) match.
func register[K, D any](e *env, id any, dev D, slot *D, bind func(p *Process) (*class, error)) (K, error) {
	e.uml()
	p := e.p
	switch c := p.cls; {
	case c == nil:
		c, err := bind(p)
		if err != nil {
			return *new(K), err
		}
		p.cls = c
	case c.standbyID != nil && c.name != "":
		if _, ok := c.kernel.(K); !ok || c.standbyID != id {
			return *new(K), fmt.Errorf("sudml: standby driver identity %v does not match %s", id, c.name)
		}
		c.standbyID = nil
	default:
		return *new(K), fmt.Errorf("sudml: %s already registered a device", p.Name)
	}
	*slot = dev
	p.cls.recycler, _ = any(dev).(api.PageRecycler)
	p.kicker, _ = any(dev).(api.BatchKicker)
	return p.cls.kernel.(K), nil
}

// netClass binds the Ethernet class to eth (or passes on err).
func (p *Process) netClass(eth *ethproxy.Proxy, err error) (*class, error) {
	if err != nil {
		return nil, err
	}
	p.Eth = eth
	p.hold.try, p.hold.drop = p.tryXmit, p.dropXmit
	rx := newBatcher(p, ethproxy.OpNetifRxBatch, ethproxy.MaxRxBatch, false, &p.RxBatches, ethproxy.EncodeRxBatch)
	c := &class{ops: netOps, lo: protocol.EthBase, hi: protocol.WifiBase - 1, down: eth.HandleDowncall,
		kernel: &umlNetKernel{p: p, rx: rx}, batch: rx, qp: eth, guard: &eth.GuardMode, objs: p.K.Net}
	if eth.Ifc != nil {
		c.bind(eth.Ifc.Name, eth.Ifc)
	}
	c.arm = func(sb *Process) (*class, any, error) {
		sc, err := sb.netClass(ethproxy.NewStandby(eth.K, sb.DF, sb.Chan, eth.Ifc.Name, eth.Ifc.MAC))
		return sc, [6]byte(eth.Ifc.MAC), err
	}
	c.attach = func(f *trace.Flight) { eth.Ifc.Shadow, eth.Ifc.Flight = &shadow.Net{}, f }
	c.probe = func() bool {
		// The interruptible sync ioctl: a wedged driver fails it.
		ifc := eth.Ifc
		if !ifc.IsUp() || ifc.Recovering() {
			return false
		}
		_, err := ifc.Ioctl(api.IoctlGetMIIStatus, nil)
		return err != nil
	}
	return c, nil
}

// blkClass binds the block class to bp (or passes on err).
func (p *Process) blkClass(bp *blkproxy.Proxy, err error) (*class, error) {
	if err != nil {
		return nil, err
	}
	p.Blk = bp
	// Completions gathered so far are delivered before held submissions
	// run: see the slot-reuse hazard in interrupt.
	p.hold.try, p.hold.drop, p.hold.deliverFirst = p.tryBlkSubmit, p.dropBlkSubmit, true
	comps := newBatcher(p, blkproxy.OpCompleteBatch, blkproxy.MaxBlkBatch, true, &p.BlkBatches, blkproxy.EncodeBlkBatch)
	c := &class{ops: blkOps, lo: protocol.BlockBase, hi: ^uint32(0), down: bp.HandleDowncall,
		kernel: &umlBlockKernel{p: p, comps: comps}, batch: comps, qp: bp, guard: &bp.GuardMode, objs: p.K.Blk}
	if bp.Dev != nil {
		c.bind(bp.Dev.Name, bp.Dev)
	}
	c.arm = func(sb *Process) (*class, any, error) {
		sc, err := sb.blkClass(blkproxy.NewStandby(bp.K, sb.DF, sb.Chan, bp.Dev.Name, bp.Dev.Geom))
		return sc, bp.Dev.Geom, err
	}
	c.attach = func(f *trace.Flight) {
		bp.Dev.AttachShadow(shadow.NewBlock(bp.Dev.Geom))
		bp.Dev.Flight = f
	}
	return c, nil
}

// wifiClass binds the wireless class to w (no recovery path).
func (p *Process) wifiClass(w *wifiproxy.Proxy, err error) (*class, error) {
	if err != nil {
		return nil, err
	}
	p.Wifi = w
	return &class{ops: wifiOps, lo: protocol.WifiBase, hi: protocol.AudioBase - 1,
		down:   func(_ int, m uchan.Msg) { w.HandleDowncall(m) },
		kernel: &umlWifiKernel{p: p}, name: w.Ifc.Name, objs: p.K.Wifi}, nil
}

// audioClass binds the audio class to a (no recovery path).
func (p *Process) audioClass(a *audioproxy.Proxy, err error) (*class, error) {
	if err != nil {
		return nil, err
	}
	p.Audio = a
	return &class{ops: audioOps, lo: protocol.AudioBase, hi: protocol.BlockBase - 1,
		down:   func(_ int, m uchan.Msg) { a.HandleDowncall(m) },
		kernel: &umlAudioKernel{p: p}, name: a.PCM.Name, objs: p.K.Audio}, nil
}

// --- upcall tables --------------------------------------------------------------

// upcall services one kernel→driver message on ring q in driver-process
// context. Async upcalls discard the reply.
type upcall func(p *Process, q int, m uchan.Msg) (uchan.Msg, bool)

// opTable indexes a class's upcall handlers by op, beside the interrupt and
// ctl upcalls every process serves.
func opTable(class map[uint32]upcall) []upcall {
	n := protocol.OpCtl + 1
	for op := range class {
		n = max(n, op+1)
	}
	t := make([]upcall, n)
	t[protocol.OpInterrupt] = (*Process).interrupt
	t[protocol.OpCtl] = (*Process).ctlUpcall
	for op, h := range class {
		t[op] = h
	}
	return t
}

// blocking adapts a blocking upcall: the idle thread hands it to a worker,
// and the reply carries its error.
func blocking(f func(p *Process, m uchan.Msg) error) upcall {
	return func(p *Process, _ int, m uchan.Msg) (uchan.Msg, bool) {
		p.worker()
		return replyErr(m, f(p, m)), true
	}
}

// async adapts an asynchronous upcall, acknowledged as done.
func async(f func(p *Process, q int, m uchan.Msg)) upcall {
	return func(p *Process, q int, m uchan.Msg) (uchan.Msg, bool) {
		f(p, q, m)
		return ack(m, 0)
	}
}

var (
	commonOps = opTable(nil)
	// Open may block (the e1000e sleeps probing interrupt modes, §4.2;
	// nvmed's queue creation sleeps), so every open runs on a worker.
	netOps = opTable(map[uint32]upcall{
		ethproxy.OpOpen: blocking(func(p *Process, _ uchan.Msg) error { return p.netdev.Open() }),
		ethproxy.OpStop: blocking(func(p *Process, _ uchan.Msg) error { return p.netdev.Stop() }),
		ethproxy.OpIoctl: func(p *Process, _ int, m uchan.Msg) (uchan.Msg, bool) {
			p.worker()
			out, err := p.netdev.DoIoctl(uint32(m.Args[0]), m.Data)
			return replyOut(m, out, err)
		},
		ethproxy.OpXmit: async(func(p *Process, q int, m uchan.Msg) {
			p.K.M.Trace.Event(trace.ClassNetTx, q, m.Args[2], trace.HopUchanDeq)
			p.hold.handle(q, m)
		}),
		ethproxy.OpPageRecycle: async(func(p *Process, q int, m uchan.Msg) { p.handleRecycle(q, m, ethproxy.OpRecycleAck) }),
		ethproxy.OpQueueEpoch:  async((*Process).handleQueueEpoch),
	})
	blkOps = opTable(map[uint32]upcall{
		blkproxy.OpOpen: blocking(func(p *Process, _ uchan.Msg) error { return p.blockdev.Open() }),
		blkproxy.OpStop: blocking(func(p *Process, _ uchan.Msg) error { return p.blockdev.Stop() }),
		blkproxy.OpSubmit: async(func(p *Process, q int, m uchan.Msg) {
			p.K.M.Trace.Event(trace.ClassBlk, q, m.Args[5], trace.HopUchanDeq)
			p.hold.handle(q, m)
		}),
		// Flush barriers ride the same hold queue as submissions, so a
		// full hardware queue delays — never drops — a barrier, and held
		// work stays in order.
		blkproxy.OpFlush:       async(func(p *Process, q int, m uchan.Msg) { p.hold.handle(q, m) }),
		blkproxy.OpPageRecycle: async(func(p *Process, q int, m uchan.Msg) { p.handleRecycle(q, m, blkproxy.OpRecycleAck) }),
		blkproxy.OpQueueEpoch:  async((*Process).handleQueueEpoch),
	})
	wifiOps = opTable(map[uint32]upcall{
		wifiproxy.OpOpen: blocking(func(p *Process, _ uchan.Msg) error { return p.wifidev.Open() }),
		wifiproxy.OpStop: blocking(func(p *Process, _ uchan.Msg) error { return p.wifidev.Stop() }),
		wifiproxy.OpScan: async(func(p *Process, _ int, _ uchan.Msg) {
			if err := p.wifidev.StartScan(); err != nil {
				p.K.Logf("[sud:%s] scan failed: %v", p.Name, err)
			}
		}),
		wifiproxy.OpAssoc: async(func(p *Process, _ int, m uchan.Msg) {
			if err := p.wifidev.Associate(string(m.Data)); err != nil {
				// Report failure through the mirrored state path.
				_ = p.Chan.Down(uchan.Msg{Op: wifiproxy.OpDisassociated})
			}
		}),
		wifiproxy.OpDisassoc: async(func(p *Process, _ int, _ uchan.Msg) { _ = p.wifidev.Disassociate() }),
		wifiproxy.OpXmit: async(func(p *Process, _ int, m uchan.Msg) {
			p.Acct.Charge(sim.Copy(len(m.Data)))
			if err := p.wifidev.StartXmit(m.Data); err != nil {
				p.XmitRingDrops++
			}
		}),
	})
	audioOps = opTable(map[uint32]upcall{
		audioproxy.OpPrepare: blocking(func(p *Process, m uchan.Msg) error {
			return p.audiodev.PrepareStream(int(m.Args[0]), int(m.Args[1]), int(m.Args[2]))
		}),
		audioproxy.OpWritePeriod: async(func(p *Process, _ int, m uchan.Msg) {
			p.Acct.Charge(sim.Copy(len(m.Data)))
			if err := p.audiodev.WritePeriod(int(m.Args[0]), m.Data); err != nil {
				p.K.Logf("[sud:%s] period write failed: %v", p.Name, err)
			}
		}),
		audioproxy.OpTrigger: blocking(func(p *Process, m uchan.Msg) error { return p.audiodev.Trigger(m.Args[0] == 1) }),
		audioproxy.OpPointer: func(p *Process, _ int, m uchan.Msg) (uchan.Msg, bool) {
			pos, err := p.audiodev.Pointer()
			r := replyErr(m, err)
			r.Args[1] = uint64(pos)
			return r, true
		},
	})
)

// --- completion batcher -----------------------------------------------------------

// batcher is a class's per-queue completion batching, flushed on dispatch
// boundaries.
type batcher interface {
	flush()      // emit every queue's partial batch
	reset(q int) // drop queue q's gathered references
}

// refBatch accumulates, per queue, the references (received frames, I/O
// completions) awaiting one batched downcall: up to max ride one ring slot.
// Batches flush when full and at the end of the dispatch that produced them,
// so delivery never waits on future traffic. Single-queue channels (and the
// NoRxBatch ablation) bypass batching, keeping one message per reference.
type refBatch[T any] struct {
	p      *Process
	op     uint32
	max    int
	stamp  bool    // Args[0] carries the queue's epoch
	count  *uint64 // batches sent
	encode func(buf []byte, refs []T) []byte
	refs   [][]T
	buf    [][]byte // each queue's encode scratch; the ring copies the batch
}

func newBatcher[T any](p *Process, op uint32, max int, stamp bool, count *uint64, encode func([]byte, []T) []byte) *refBatch[T] {
	n := len(p.QueueAccts)
	return &refBatch[T]{p: p, op: op, max: max, stamp: stamp, count: count, encode: encode,
		refs: make([][]T, n), buf: make([][]byte, n)}
}

func (b *refBatch[T]) add(q int, r T) {
	b.refs[q] = append(b.refs[q], r)
	if len(b.refs[q]) >= b.max {
		b.flushQ(q)
	}
}

// flushQ emits queue q's references as one batched downcall on ring q.
func (b *refBatch[T]) flushQ(q int) {
	if len(b.refs[q]) == 0 {
		return
	}
	p := b.p
	data := b.encode(b.buf[q], b.refs[q])
	b.buf[q] = data
	b.refs[q] = b.refs[q][:0]
	p.QueueAccts[q].Charge(sim.Copy(len(data)))
	*b.count++
	m := uchan.Msg{Op: b.op, Data: data}
	if b.stamp {
		m.Args[0] = p.qep[q]
	}
	_ = p.Chan.DownQ(q, m)
}

func (b *refBatch[T]) flush() {
	for q := range b.refs {
		b.flushQ(q)
	}
}

func (b *refBatch[T]) reset(q int) { b.refs[q] = b.refs[q][:0] }
