// Package blockdev is the kernel block layer: the trusted core that owns
// block devices registered by drivers (RegisterBlockDev), splits each
// device's submission state into per-queue contexts — one per hardware
// queue pair the driver exposes — and offers single-block ReadAt/WriteAt
// with software request queues and per-queue stall/wake, the blk-mq shape
// of netstack's per-queue interface contexts. It trusts nothing about the
// driver's liveness: a full hardware queue parks requests in that queue's
// software queue only, and completions are matched by kernel-allocated tag,
// so a driver cannot complete a request it was never given (§3.1's
// defensive proxy discipline applied to storage).
//
// The core is also where shadow-driver recovery (§2, §5.2: restarting a
// crashed untrusted driver) lands for storage. The Manager embeds the
// lifecycle table every class shares (internal/kernel/shadow): a supervised
// driver's death parks the device — in-flight and newly submitted requests
// wait instead of failing, and the epoch fences the dead incarnation's
// proxy — and the restarted driver's registration adopts the same Dev, so
// application handles survive. CompleteRecovery replays the shadow's
// in-flight log in per-queue submission order under the original tags
// before releasing the parked queues: applications observe added latency,
// never an error.
package blockdev

import (
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/kernel/shadow"
	"sud/internal/sim"
	"sud/internal/trace"
)

// Path costs of the block core itself, per request (see
// internal/sim/costs.go for the calibration rationale).
const (
	// CostSubmitPath is request allocation, tag assignment and queue
	// bookkeeping on submission.
	CostSubmitPath sim.Duration = 1000
	// CostCompletePath is completion matching and callback dispatch.
	CostCompletePath sim.Duration = 800
)

// MaxQueuedPerQueue bounds one queue context's software request queue; past
// it submissions fail with ErrCongested and the caller must back off, so a
// stalled hardware queue cannot pin unbounded kernel memory.
const MaxQueuedPerQueue = 256

// Errors returned by the submission path.
var (
	ErrNameTaken  = shadow.ErrNameTaken
	ErrOutOfRange = fmt.Errorf("blockdev: LBA out of range")
	ErrBadSize    = fmt.Errorf("blockdev: payload is not one block")
	ErrDown       = fmt.Errorf("blockdev: device is down")
	ErrCongested  = fmt.Errorf("blockdev: request queue full")
)

// Manager is the kernel's block core.
type Manager struct {
	// Table holds the devices by name and drives their recovery lifecycle:
	// adoption, standbys, quarantine (internal/kernel/shadow).
	shadow.Table[*Dev, api.BlockGeometry, api.BlockDevice]

	Loop *sim.Loop
	Acct *sim.CPUAccount // the kernel CPU account

	// Trace is the machine's span plane (kernel.New threads it from
	// hw.Machine); nil-safe, and free unless spans are enabled.
	Trace *trace.Tracer
}

// New returns an empty block core charging CPU to acct.
func New(loop *sim.Loop, acct *sim.CPUAccount) *Manager {
	return &Manager{
		Table: shadow.NewTable(shadow.Class[*Dev, api.BlockGeometry, api.BlockDevice]{
			Prefix: "blockdev", Kind: "device",
			Identity: func(d *Dev) api.BlockGeometry { return d.Geom },
			Bind:     func(d *Dev, drv api.BlockDevice) { d.drv = drv },
			Park:     (*Dev).park,
			Bar:      (*Dev).bar,
		}),
		Loop: loop,
		Acct: acct,
	}
}

// Register adds a block device for a driver. Names must be unique (proxy
// drivers retry with the kernel's name template, like netdevs). A device
// awaiting adoption under name with the same geometry (its supervised
// driver died) is adopted instead: the new driver backs the same Dev every
// application handle already points at. There is deliberately no
// geometry-only match: geometry identifies a device model, not a device.
func (m *Manager) Register(name string, geom api.BlockGeometry, drv api.BlockDevice) (*Dev, error) {
	return m.Table.Register(name, geom, drv, func() (*Dev, error) {
		if geom.BlockSize <= 0 || geom.Blocks == 0 {
			return nil, fmt.Errorf("blockdev: bad geometry %+v", geom)
		}
		nq := max(drv.Queues(), 1)
		d := &Dev{Name: name, Geom: geom, mgr: m, drv: drv, Life: shadow.NewLife(nq),
			queues: make([]QueueCtx, nq), lat: make([]trace.Hist, nq)}
		for q := range d.queues {
			d.queues[q].ID = q
		}
		return d, nil
	})
}

// bar is the class half of Quarantine and Unregister: the device goes down
// and every parked, in-flight and logged request fails with ErrDown instead
// of waiting for a driver that will never come; the shadow log is dropped.
func (d *Dev) bar() {
	d.up = false
	d.replay = nil
	if d.shadow != nil {
		d.shadow.Reset()
	}
	d.failAll()
}

// failAll fails every request the device holds with ErrDown: barriers,
// in-flight requests and parked submissions. A dispatched flush fails
// through its in-flight entry; an undispatched or queued one fails here.
func (d *Dev) failAll() {
	if b := d.barrier; b != nil && !b.dispatched {
		d.barrier = nil
		b.cb(ErrDown)
	}
	for _, b := range d.flushQ {
		b.cb(ErrDown)
	}
	d.flushQ = nil
	var dead []request
	d.inflight.Range(func(_ uint64, r *request) bool {
		dead = append(dead, *r)
		return true
	})
	d.inflight.Clear()
	for _, r := range dead {
		d.finish(r.done, r.buf, nil, ErrDown)
	}
	for q := range d.queues {
		qc := &d.queues[q]
		qc.drainLeft = 0
		for qc.waiting.Len() > 0 {
			w := qc.waiting.Pop()
			d.finish(w.done, w.req.Data, nil, ErrDown)
		}
	}
}

// park is the class half of BeginRecovery: from now until CompleteRecovery
// submissions park in the per-queue software queues instead of failing and
// in-flight requests stay tabled awaiting replay. A device-wide recovery
// subsumes any surgical one: the full replay owns every queue's drain leg.
func (d *Dev) park() {
	waiting := 0
	for q := range d.queues {
		d.queues[q].stalled = true
		d.queues[q].drainLeft = 0
		waiting += d.queues[q].waiting.Len()
	}
	d.Flight.Recordf(trace.FPark, "%s epoch %d: %d in flight, %d queued parked",
		d.Name, d.Epoch(), d.inflight.Len(), waiting)
}

// Dev looks up a device by name.
func (m *Manager) Dev(name string) (*Dev, error) { return m.Get(name) }

// QueueCtx is one per-queue context of a block device: its own stall state,
// its own software request queue, and its own counters. Splitting this
// state per queue is what lets one full hardware queue park only the
// requests steered onto it — sibling queues keep submitting.
type QueueCtx struct {
	ID int

	stalled bool
	waiting sim.FIFO[queued]

	// drainBelow/drainLeft track the queue's own drain leg after a
	// surgical recovery (the queue's epoch and recovering flag live in the
	// device's shadow.Life).
	drainBelow uint64
	drainLeft  int

	// Per-queue traffic counters. Replays counts requests re-submitted to
	// a restarted driver by shadow recovery.
	Reads, Writes, Completions, Errors, Replays uint64

	// OnWake, if set, runs when this queue is woken; when unset the
	// device-level OnWake hook fires instead.
	OnWake func()
}

// Stalled reports the queue's backpressure state (tests and pacing logic).
func (qc *QueueCtx) Stalled() bool { return qc.stalled }

// Waiting reports the software queue depth.
func (qc *QueueCtx) Waiting() int { return qc.waiting.Len() }

// queued is one parked submission.
type queued struct {
	req  api.BlockRequest
	done completion
}

// request is one in-flight request awaiting completion, held by value in
// the device's tag table.
type request struct {
	q     int
	write bool
	flush bool
	// at is the dispatch stamp; Complete turns it into the per-queue
	// end-to-end latency sample (always-on metrics plane, zero cost).
	at   sim.Time
	done completion
	// buf is the block core's copy of a write payload (the request's
	// Data), returned to the device's free list once the request is done.
	buf []byte
}

// completion is how a request reports back: reads and barriers through cb,
// writes through wcb.
type completion struct {
	cb  func([]byte, error)
	wcb func(error)
}

// finish delivers a request's outcome and recycles its payload copy.
func (d *Dev) finish(c completion, buf, data []byte, err error) {
	if c.wcb != nil {
		c.wcb(err)
	} else {
		c.cb(data, err)
	}
	d.bufs.Put(buf)
}

// flushOp is one Flush() barrier moving through the device: queued, then
// active (new submissions park), then dispatched (the driver holds the
// flush; every request dispatched before it has already completed).
type flushOp struct {
	cb         func(error)
	dispatched bool
}

// Dev is one registered block device. It implements api.BlockKernel — it is
// what RegisterBlockDev hands back to the driver.
type Dev struct {
	Name string
	Geom api.BlockGeometry

	mgr *Manager
	drv api.BlockDevice
	up  bool

	// Shadow recovery state: the request log (attached by the supervisor)
	// and the per-queue replay schedules built at CompleteRecovery.
	shadow *shadow.Block
	replay [][]shadow.PendingBlock
	// Life is the incarnation state the manager's table drives: the epoch
	// fencing a dead driver's proxy, the recovering flags (park, don't
	// fail) and the flight recorder.
	shadow.Life

	queues   []QueueCtx
	inflight sim.TagTable[request]
	nextTag  uint64
	// bufs holds the block core's write-payload copies (writeAtQ) between
	// requests.
	bufs sim.BufPool

	// Barrier state: one flush barrier is active at a time; later Flush()
	// calls queue behind it. While a barrier is active every new
	// submission parks in its queue's software queue, and the flush
	// itself is dispatched only once the in-flight table drains — so a
	// flush completion means every write acked before it is durable, in
	// every queue (the §3.1.2 guard family's durability member).
	barrier *flushOp
	flushQ  []*flushOp

	// OnWake, if set, runs when the driver wakes a queue with no
	// queue-level hook (backpressure release for the benchmark loop).
	OnWake func()

	// Flushes counts completed flush barriers; FUAWrites counts
	// force-unit-access writes dispatched to the driver.
	Flushes   uint64
	FUAWrites uint64

	// BadCompletions counts driver completions with unknown or reused
	// tags — a confused or malicious driver, dropped and counted.
	BadCompletions uint64

	// lat holds per-queue end-to-end latency histograms (dispatch →
	// completion delivery), always on.
	lat []trace.Hist

	// drainBelow/drainLeft track the drain leg of a recovery: requests
	// with tags below drainBelow were dispatched to the incarnation that
	// died; when the last of them completes, the recovery has drained.
	drainBelow uint64
	drainLeft  int
}

var _ api.BlockKernel = (*Dev)(nil)
var _ api.RecoverableDevice = (*Dev)(nil)

// AttachShadow arms shadow recovery: from now on every dispatched request is
// logged until its completion is delivered. The supervisor attaches the
// shadow when it takes ownership of the device's driver process.
func (d *Dev) AttachShadow(s *shadow.Block) { d.shadow = s }

// Shadow returns the attached shadow (nil when unsupervised).
func (d *Dev) Shadow() *shadow.Block { return d.shadow }

// Queue returns queue q's context (clamped), for per-queue hooks and stats.
func (d *Dev) Queue(q int) *QueueCtx { return &d.queues[d.ClampQ(q)] }

// QueueLatency returns queue q's end-to-end latency histogram (dispatch →
// completion delivery). Snapshot by value for windowed measurements.
func (d *Dev) QueueLatency(q int) *trace.Hist { return &d.lat[d.ClampQ(q)] }

// Up brings the device online (→ driver Open: queue creation, IRQ).
func (d *Dev) Up() error {
	if d.up {
		return nil
	}
	if err := d.drv.Open(); err != nil {
		return fmt.Errorf("blockdev: open %s: %w", d.Name, err)
	}
	d.up = true
	return nil
}

// Down quiesces the device (→ driver Stop).
func (d *Dev) Down() error {
	if !d.up {
		return nil
	}
	d.up = false
	return d.drv.Stop()
}

// IsUp reports admin state.
func (d *Dev) IsUp() bool { return d.up }

// InFlight reports requests submitted but not yet completed.
func (d *Dev) InFlight() int { return d.inflight.Len() }

// QueueForLBA is the submission steering hash: the queue a block lands on
// among nq queues. Fibonacci hashing spreads sequential LBAs uniformly, so
// a striding reader exercises every queue pair — the storage analogue of
// spreading flows by transport-port hash.
func QueueForLBA(lba uint64, nq int) int {
	if nq <= 1 {
		return 0
	}
	return int((lba * 0x9E3779B97F4A7C15 >> 32) % uint64(nq))
}

// ReadAt reads the block at lba, steering by LBA hash; cb receives the
// payload (or an error) when the driver completes. The payload is borrowed
// for the call: its buffer is reused once cb returns (the proxy's per-queue
// guard landing buffer, a recycled page-flip page, or the trusted driver's
// DMA slot), so a callback that keeps the bytes copies them.
func (d *Dev) ReadAt(lba uint64, cb func([]byte, error)) error {
	return d.ReadAtQ(lba, QueueForLBA(lba, len(d.queues)), cb)
}

// ReadAtQ reads the block at lba on an explicit queue. Like ReadAt, cb
// borrows the payload for the call only.
func (d *Dev) ReadAtQ(lba uint64, q int, cb func([]byte, error)) error {
	return d.submit(q, api.BlockRequest{LBA: lba}, completion{cb: cb})
}

// WriteAt writes one block (exactly BlockSize bytes) at lba, steering by
// LBA hash; cb receives nil or an error on completion. On a device with a
// volatile write cache the completion means accepted, not durable — call
// Flush (or use WriteAtFUA) for durability.
func (d *Dev) WriteAt(lba uint64, data []byte, cb func(error)) error {
	return d.writeAtQ(lba, QueueForLBA(lba, len(d.queues)), data, false, cb)
}

// WriteAtQ writes one block at lba on an explicit queue.
func (d *Dev) WriteAtQ(lba uint64, q int, data []byte, cb func(error)) error {
	return d.writeAtQ(lba, q, data, false, cb)
}

// WriteAtFUA writes one block with force-unit-access semantics: the
// completion is delivered only once the payload is durable, past any
// volatile device cache (REQ_FUA).
func (d *Dev) WriteAtFUA(lba uint64, data []byte, cb func(error)) error {
	return d.writeAtQ(lba, QueueForLBA(lba, len(d.queues)), data, true, cb)
}

func (d *Dev) writeAtQ(lba uint64, q int, data []byte, fua bool, cb func(error)) error {
	if len(data) != d.Geom.BlockSize {
		return ErrBadSize
	}
	// The block core owns the payload for the request's lifetime, like
	// the page cache owns a bio's pages. The copy comes from the device's
	// free list and returns there at completion.
	buf := d.bufs.Get(len(data))
	copy(buf, data)
	d.mgr.Acct.Charge(sim.Copy(len(data)))
	err := d.submit(q, api.BlockRequest{Write: true, LBA: lba, Data: buf, FUA: fua},
		completion{wcb: cb})
	if err != nil {
		d.bufs.Put(buf)
	}
	return err
}

// Flush issues a write barrier (REQ_OP_FLUSH): cb runs once every write
// acked before this call is durable on media. Ordering is strict — new
// submissions park behind the barrier, and the flush command reaches the
// driver only after every previously dispatched request (on every queue)
// has completed, so a driver cannot be handed a flush while writes it has
// not acked are still in flight. Flushes issued while one is active queue
// behind it in order.
func (d *Dev) Flush(cb func(error)) error {
	if !d.up {
		return ErrDown
	}
	d.mgr.Acct.Charge(CostSubmitPath)
	d.flushQ = append(d.flushQ, &flushOp{cb: cb})
	d.pumpBarrier()
	return nil
}

// pumpBarrier advances the barrier state machine: activate the next queued
// flush, and once the in-flight table is drained hand the flush itself to
// the driver on queue 0 under its own tag (logged in the shadow like any
// request, so a driver death mid-barrier replays it in order).
func (d *Dev) pumpBarrier() {
	if d.Recovering() {
		return
	}
	if d.barrier == nil {
		if len(d.flushQ) == 0 {
			return
		}
		d.barrier = d.flushQ[0]
		d.flushQ = d.flushQ[1:]
	}
	b := d.barrier
	if b.dispatched || d.inflight.Len() != 0 {
		return
	}
	b.dispatched = true
	if !d.dispatch(0, api.BlockRequest{Flush: true},
		completion{cb: func(_ []byte, err error) { d.finishBarrier(b, err) }}) {
		// The driver refused the flush (queue full): retried on the next
		// wake.
		b.dispatched = false
	}
}

// finishBarrier completes one barrier: deliver the verdict, release the
// parked queues, then start any queued successor.
func (d *Dev) finishBarrier(b *flushOp, err error) {
	if d.barrier == b {
		d.barrier = nil
	}
	if err == nil {
		d.Flushes++
	}
	b.cb(err)
	if !d.up || d.Recovering() {
		return
	}
	for q := range d.queues {
		d.WakeQueueQ(q)
	}
	d.pumpBarrier()
}

// submit validates, tags and dispatches one request; a stalled or full
// hardware queue — a device whose driver is being restarted, or one with a
// flush barrier in flight — parks it in that queue's software queue.
func (d *Dev) submit(q int, req api.BlockRequest, done completion) error {
	if !d.up {
		return ErrDown
	}
	if req.LBA >= d.Geom.Blocks {
		return ErrOutOfRange
	}
	q = d.ClampQ(q)
	qc := &d.queues[q]
	d.mgr.Acct.Charge(CostSubmitPath)
	if qc.stalled || d.QueueRecovering(q) || d.Recovering() || d.barrier != nil {
		if qc.waiting.Len() >= MaxQueuedPerQueue {
			return ErrCongested
		}
		qc.waiting.Push(queued{req: req, done: done})
		return nil
	}
	if !d.dispatch(q, req, done) {
		qc.stalled = true
		qc.waiting.Push(queued{req: req, done: done})
	}
	return nil
}

// dispatch hands one request to the driver; it reports false when the
// hardware queue refused it (park and stall).
func (d *Dev) dispatch(q int, req api.BlockRequest, done completion) bool {
	qc := &d.queues[q]
	req.Tag = d.nextTag
	d.nextTag++
	d.inflight.Put(req.Tag, request{q: q, write: req.Write, flush: req.Flush,
		at: d.mgr.Loop.Now(), done: done, buf: req.Data})
	d.mgr.Trace.Event(trace.ClassBlk, q, req.Tag, trace.HopSubmit)
	if err := d.drv.Submit(q, req); err != nil {
		d.inflight.Delete(req.Tag)
		return false
	}
	if d.shadow != nil {
		d.shadow.RecordSubmit(q, req)
	}
	switch {
	case req.Flush:
		// Barriers are counted on completion (d.Flushes), not per queue.
	case req.Write:
		qc.Writes++
		if req.FUA {
			d.FUAWrites++
		}
	default:
		qc.Reads++
	}
	return true
}

// --- api.BlockKernel (driver → kernel) ---------------------------------------

// Complete implements api.BlockKernel: request tag finished on queue q. For
// trusted in-kernel drivers data is the driver's own buffer; the SUD proxy
// calls the same entry after validating and guard-copying the untrusted
// reference. data is lent straight to the request's callback.
func (d *Dev) Complete(q int, tag uint64, err error, data []byte) {
	r, ok := d.inflight.Delete(tag)
	if !ok {
		d.BadCompletions++
		return
	}
	if d.shadow != nil {
		d.shadow.RecordComplete(tag)
	}
	qc := &d.queues[d.ClampQ(q)]
	qc.Completions++
	d.mgr.Acct.Charge(CostCompletePath)
	d.lat[d.ClampQ(q)].Record(d.mgr.Loop.Now() - r.at)
	d.mgr.Trace.Event(trace.ClassBlk, q, tag, trace.HopComplete)
	if d.drainLeft > 0 && tag < d.drainBelow {
		d.drainLeft--
		if d.drainLeft == 0 {
			d.Flight.Recordf(trace.FDrain, "%s epoch %d: all pre-death requests completed",
				d.Name, d.Epoch())
		}
	}
	// Surgical recoveries drain per queue: the owning queue's context, not
	// the one the driver claims to complete on, tracks its own leg.
	if rqc := &d.queues[r.q]; rqc.drainLeft > 0 && tag < rqc.drainBelow {
		rqc.drainLeft--
		if rqc.drainLeft == 0 {
			d.Flight.Recordf(trace.FDrain, "%s q%d epoch %d: all pre-quarantine requests completed",
				d.Name, r.q, d.QueueEpoch(r.q))
		}
	}
	if err == nil && !r.write && !r.flush && len(data) != d.Geom.BlockSize {
		err = fmt.Errorf("blockdev: short read (%d bytes)", len(data))
	}
	if err != nil {
		qc.Errors++
		data = nil
	}
	d.finish(r.done, r.buf, data, err)
	// The in-flight table draining may be what an active barrier is
	// waiting for.
	if d.barrier != nil && !d.barrier.dispatched {
		d.pumpBarrier()
	}
}

// WakeQueueQ implements api.BlockKernel: queue q's hardware queue regained
// space; drain its software queue and notify the submitter. Replays left
// over from a recovery go first — they carry the oldest tags and must reach
// the restarted driver before any parked request that was submitted after
// them.
func (d *Dev) WakeQueueQ(q int) {
	q = d.ClampQ(q)
	qc := &d.queues[q]
	if d.Recovering() || d.QueueRecovering(q) {
		// A wake between driver incarnations (a stale proxy, or a death
		// racing the doorbell) must not release parked requests into a
		// driver that no longer exists — nor into a surgically quarantined
		// queue whose DMA sub-domain is revoked.
		return
	}
	if !d.drainReplay(qc.ID) {
		qc.stalled = true
		return
	}
	if d.barrier != nil {
		// Parked submissions stay parked behind the in-flight barrier;
		// the wake may be the headroom a refused flush dispatch needed.
		d.pumpBarrier()
		return
	}
	qc.stalled = false
	for qc.waiting.Len() > 0 {
		w := qc.waiting.Peek()
		if !d.dispatch(qc.ID, w.req, w.done) {
			qc.stalled = true
			return
		}
		qc.waiting.Pop()
	}
	if h := qc.OnWake; h != nil {
		h()
		return
	}
	if d.OnWake != nil {
		d.OnWake()
	}
}

// drainReplay feeds queue q's remaining replay schedule to the (restarted)
// driver in original submission order, under the original tags — their
// callbacks are still tabled in d.inflight. It reports false if the driver
// refused a replay (queue full: continue on the next wake).
func (d *Dev) drainReplay(q int) bool {
	if d.replay == nil || q >= len(d.replay) {
		return true
	}
	for len(d.replay[q]) > 0 {
		p := d.replay[q][0]
		d.mgr.Acct.Charge(CostSubmitPath)
		if err := d.drv.Submit(q, p.Req); err != nil {
			return false
		}
		d.replay[q] = d.replay[q][1:]
		d.queues[q].Replays++
		if d.shadow != nil {
			d.shadow.Replayed++
		}
	}
	return true
}

// CompleteRecovery finishes a shadow recovery after the restarted driver
// has adopted the device: bring-up is replayed (the driver's Open — queue
// creation, IRQ), the shadow's in-flight log becomes the per-queue replay
// schedule, and every queue is released — replays first, then parked
// submissions. It returns the number of requests scheduled for replay. On
// an Open failure the device stays recovering (parked requests intact), so
// a second restart can try again.
func (d *Dev) CompleteRecovery() (int, error) {
	if !d.Recovering() {
		return 0, nil
	}
	if d.up {
		if err := d.drv.Open(); err != nil {
			return 0, fmt.Errorf("blockdev: recovery open %s: %w", d.Name, err)
		}
	}
	n := 0
	if d.shadow != nil {
		d.replay = d.shadow.PendingByQueue(len(d.queues))
		for q := range d.replay {
			n += len(d.replay[q])
		}
	}
	// Everything tabled right now was dispatched to the incarnation that
	// died; when the last of them completes (replayed or raced), the
	// recovery has drained.
	d.drainBelow = d.nextTag
	d.drainLeft = d.inflight.Len()
	d.Flight.Recordf(trace.FReplay, "%s epoch %d: %d logged requests scheduled for replay",
		d.Name, d.Epoch(), n)
	if d.drainLeft == 0 {
		d.Flight.Recordf(trace.FDrain, "%s epoch %d: nothing was in flight at death",
			d.Name, d.Epoch())
	}
	d.EndRecovery()
	for q := range d.queues {
		d.WakeQueueQ(q)
	}
	// A barrier that was active (or queued) when the driver died resumes:
	// replayed requests are back in flight, and the flush dispatches once
	// they drain — kill -9 plus respawn cannot reorder acked-durable
	// writes around the barrier.
	d.pumpBarrier()
	return n, nil
}

// BeginQueueRecovery parks exactly one queue whose DMA sub-domain the
// supervisor revoked, while the driver process and every sibling stay up:
// past the queue's epoch fence (shadow.Life.FenceQueue), its in-flight
// requests stay tabled awaiting replay and new submissions steered onto it
// park in its software queue.
func (d *Dev) BeginQueueRecovery(q int) {
	q = d.ClampQ(q)
	if !d.FenceQueue(q) {
		return
	}
	qc := &d.queues[q]
	qc.stalled = true
	qc.drainBelow = d.nextTag
	qc.drainLeft = 0
	d.inflight.Range(func(_ uint64, r *request) bool {
		if r.q == qc.ID {
			qc.drainLeft++
		}
		return true
	})
	d.Flight.Recordf(trace.FPark, "%s q%d epoch %d: %d in flight, %d queued parked",
		d.Name, q, d.QueueEpoch(q), qc.drainLeft, qc.waiting.Len())
}

// CompleteQueueRecovery finishes a surgical recovery once queue q's
// sub-domain is re-armed and the proxy resynced: the shadow's unfinished
// requests for this one queue become its replay schedule — original order,
// original tags, callbacks still tabled — and the queue is released. It
// returns the number of requests scheduled for replay.
func (d *Dev) CompleteQueueRecovery(q int) (int, error) {
	q = d.ClampQ(q)
	if parked, err := d.UnfenceQueue(q); !parked {
		return 0, err
	}
	qc := &d.queues[q]
	n := 0
	if d.shadow != nil {
		if d.replay == nil {
			d.replay = make([][]shadow.PendingBlock, len(d.queues))
		}
		d.replay[q] = d.shadow.PendingForQueue(q, len(d.queues))
		n = len(d.replay[q])
	}
	d.Flight.Recordf(trace.FReplay, "%s q%d epoch %d: %d logged requests scheduled for replay",
		d.Name, q, d.QueueEpoch(q), n)
	if qc.drainLeft == 0 {
		d.Flight.Recordf(trace.FDrain, "%s q%d epoch %d: nothing was in flight at quarantine",
			d.Name, q, d.QueueEpoch(q))
	}
	d.WakeQueueQ(q)
	d.pumpBarrier()
	return n, nil
}
