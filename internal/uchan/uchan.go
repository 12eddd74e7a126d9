// Package uchan implements SUD's user channels (§3.1): the RPC transport
// between an in-kernel proxy driver and an untrusted user-space driver
// process, built on message rings in memory shared by both address spaces.
//
// The performance behaviour Figure 8 depends on is modelled explicitly:
//
//   - Asynchronous upcalls and downcalls move through shared rings without
//     entering the kernel (CostUchanEnqueue/Dequeue per message).
//   - A doorbell (one syscall) is needed only when the consumer was asleep
//     or its ring was empty (§3.1.2).
//   - The driver process services its ring from the UML idle thread: after
//     draining it polls for SpinBudget before sleeping in select; waking a
//     sleeping process costs ~4 µs of CPU plus WakeLatency of latency
//     (§5.1: "waking up the sleeping process can take as long as 4µs").
//   - Downcalls queued during a drain are batched: one doorbell flushes
//     them all (§3.1.2 "batch asynchronous downcalls").
//
// MultiChan (multi.go) generalises the channel beyond the paper to N ring
// pairs per driver process — one per simulated CPU/queue, each with its own
// doorbell coalescing and service-thread CPU account — plus a shared urgent
// lane for interrupt-class messages; a single-queue MultiChan is bit-for-bit
// the paper's transport. Rings die with their process (Kill), which is the
// transport half of the kill -9 story (§4.1): the kernel side sees clean
// errors, never a hang.
//
// The package is transport only; operation codes and marshalling belong to
// the proxy driver classes in internal/proxy.
package uchan

import (
	"errors"

	"sud/internal/sim"
	"sud/internal/trace"
)

// Msg is one message in either ring.
type Msg struct {
	// Op is the operation code; the proxy driver class defines values.
	Op uint32
	// Seq matches replies to synchronous requests.
	Seq uint32
	// Args carry small scalars and shared-memory references (bus
	// addresses + lengths) — the zero-copy path for packet payloads.
	Args [6]uint64
	// Data is small inline payload (ioctl arguments and results). It is
	// copied through the ring, unlike Args references.
	Data []byte

	// urgent marks interrupt-class messages (set by ASendUrgent).
	urgent bool
	// enqAt stamps when the message entered its ring; the dequeue side
	// turns it into a ring-residency sample (trace metrics plane).
	enqAt sim.Time
}

// Tunables of the transport model.
const (
	// RingSlots bounds each direction's ring; a full upcall ring means
	// the driver is not keeping up (hung or overloaded) and the send
	// fails rather than blocking the kernel (§3.1.1).
	RingSlots = 512

	// WakeLatency is the time from doorbell to the driver process
	// running (scheduler + IPI + context switch in).
	WakeLatency sim.Duration = 1200

	// WakeCPUKernel / WakeCPUDriver split the wakeup cost between the
	// waking side (try_to_wake_up, IPI send) and the woken side (switch
	// in from the idle loop). The paper's "as long as 4 µs" (§5.1) is
	// the worst case; the common warm case on an otherwise idle sibling
	// core is well under 1 µs each way. UDP_RR's 2x CPU comes from these
	// plus the RR polling windows, which is how the paper explains it.
	WakeCPUKernel sim.Duration = 350
	WakeCPUDriver sim.Duration = 450

	// SpinBudget is the default polling window of the UML idle thread on
	// an empty ring before it sleeps in select (§4.2: upcalls are
	// handled "directly from the UML idle thread"). The window adapts:
	// see MaxSpin.
	SpinBudget sim.Duration = 2000

	// MinSpin / MaxSpin bound the adaptive polling window. The idle
	// thread widens its window toward twice the recently observed
	// message inter-arrival gap, so a request-response follow-up (the
	// transmit upcall a few µs after the receive) is caught without a
	// sleep/wake cycle, while long-idle periods sleep promptly.
	MinSpin sim.Duration = 1000
	MaxSpin sim.Duration = 8000

	// LazyDoorbell is how long a regular async upcall may sit in the
	// ring before the kernel wakes a sleeping driver for it. Interrupt
	// upcalls wake immediately (ASendUrgent); bulk traffic is instead
	// pumped by those interrupt wakes, which lets transmit upcalls batch
	// ~ITR-deep instead of paying a wakeup each (§3.1.1: "the kernel can
	// wait a short period of time to determine if the user-space driver
	// is making any progress").
	LazyDoorbell sim.Duration = 50 * sim.Microsecond
)

// Errors returned by the kernel-side API.
var (
	// ErrHung means the driver failed to respond to a synchronous upcall
	// in time; the upcall is interruptible by design (§3.1.1).
	ErrHung = errors.New("uchan: driver process not responding (interrupted)")
	// ErrDead means the driver process was killed.
	ErrDead = errors.New("uchan: driver process dead")
	// ErrRingFull means the upcall ring overflowed.
	ErrRingFull = errors.New("uchan: upcall ring full")
)

// Stats count transport events.
type Stats struct {
	Upcalls      uint64 // async kernel→driver messages
	SyncUpcalls  uint64
	Downcalls    uint64 // driver→kernel messages
	Wakeups      uint64 // driver woken from sleep
	SpinPickups  uint64 // messages caught while polling (no wake cost)
	Doorbells    uint64 // kernel notifications sent by the driver
	DroppedFull  uint64
	SpinTimeouts uint64
	// MaxDownBatch is the deepest downcall batch one doorbell flushed —
	// how hard §3.1.2 batching is working on this ring.
	MaxDownBatch uint64
}

// Served is the driver-produced message count (downcalls plus doorbells):
// the progress watermark hang detection compares across health checks. A
// ring whose backlog grows while Served stands still is wedged; one whose
// Served advances is merely saturated.
func (s Stats) Served() uint64 { return s.Downcalls + s.Doorbells }

// Driver process service states.
const (
	stateRunning = iota
	statePolling
	stateSleeping
)

// Chan is one uchan pair: the kernel-to-user and user-to-kernel rings plus
// the driver-process service loop model.
type Chan struct {
	loop *sim.Loop
	kern *sim.CPUAccount // kernel side CPU
	drv  *sim.CPUAccount // driver process CPU

	// DriverHandler services one upcall in driver-process context and
	// returns the reply a synchronous message waits for; ok false means
	// the process gave no reply. Set by SUD-UML.
	DriverHandler func(Msg) (reply Msg, ok bool)
	// KernelHandler services one downcall in kernel context. Set by the
	// proxy driver. The message's Data is borrowed for the call: its
	// buffer is the ring's, and is reused once the handler returns.
	KernelHandler func(Msg)
	// OnDrainEnd, if set, runs in driver-process context after each batch
	// of upcalls is serviced, before the downcall flush. SUD-UML uses it
	// for opportunistic submit-side coalescing: device doorbell writes
	// (TX tail, SQ tail) staged while individual upcalls were handled are
	// flushed here, once per drain, instead of one MMIO write per op.
	OnDrainEnd func()

	// k2u and u2k are the two rings. u2kSpare is a drained ring the
	// downcall flush swaps in, so the batch it delivers is the ring as it
	// stood at flush time (see flushDown).
	k2u, u2k, u2kSpare sim.FIFO[Msg]
	// slots holds the buffers downcall Data crosses the ring in.
	slots sim.BufPool

	state      int
	pollStart  sim.Time
	pollEvent  sim.Event
	pollBudget sim.Duration // the pending polling window
	wakeEvent  sim.Event

	// The service loop's scheduled callbacks, bound once in New.
	wakeFn, pollFn, lazyFn, drainFn func()

	// Adaptive spin state: EWMA of drain-end→next-arrival gaps.
	drainEnd sim.Time
	gapEWMA  sim.Duration

	// lazyEvent is the pending deferred doorbell, if any.
	lazyEvent sim.Event

	// lastDrainUrgent reports whether the most recent drain serviced an
	// interrupt-class message; only then does the idle thread extend its
	// polling window (expecting a kernel follow-up, e.g. the RR reply
	// transmit right after a receive interrupt).
	lastDrainUrgent bool

	// Hung simulates a malicious/buggy driver that stops servicing its
	// ring (§3.1.1 liveness attacks). Messages pile up; sync upcalls
	// fail with ErrHung.
	Hung bool

	// NoBatch disables downcall batching (§3.1.2 ablation): every Down
	// pays its own doorbell instead of riding the next flush.
	NoBatch bool
	// NoPoll disables the idle thread's polling window (§4.2 ablation):
	// the driver sleeps immediately after each drain, so every
	// follow-up message pays a full wakeup.
	NoPoll bool
	// dead: process killed.
	dead bool

	nextSeq uint32
	stats   Stats

	// upRes / downRes are always-on ring-residency histograms: how long
	// each message sat in its ring from enqueue to dequeue (upcall ring
	// residency includes the wake latency a sleeping driver adds — the
	// paper's 4 µs wakeup is directly visible here). Recording charges
	// nothing; the transport stays bit-for-bit with the seed.
	upRes   trace.Hist
	downRes trace.Hist
}

// New creates a channel between the kernel account and a driver account.
func New(loop *sim.Loop, kern, drv *sim.CPUAccount) *Chan {
	c := &Chan{loop: loop, kern: kern, drv: drv, state: stateSleeping}
	c.wakeFn = func() {
		c.drv.Charge(WakeCPUDriver)
		c.drain()
	}
	c.pollFn = func() {
		c.stats.SpinTimeouts++
		c.drv.Charge(c.pollBudget)
		c.state = stateSleeping
	}
	c.lazyFn = func() {
		if !c.dead && !c.Hung && c.k2u.Len() > 0 {
			c.scheduleService()
		}
	}
	c.drainFn = c.drain
	return c
}

// Stats returns transport counters.
func (c *Chan) Stats() Stats { return c.stats }

// Residency returns snapshots of the upcall- and downcall-ring residency
// histograms (enqueue→dequeue latency per message).
func (c *Chan) Residency() (up, down trace.Hist) { return c.upRes, c.downRes }

// Pending returns the number of queued upcalls (tests, hang detection).
func (c *Chan) Pending() int { return c.k2u.Len() }

// Kill marks the driver process dead: queues are dropped and all sends fail.
func (c *Chan) Kill() {
	c.dead = true
	c.k2u.Reset()
	c.u2k.Reset()
	c.loop.Cancel(c.pollEvent)
	c.loop.Cancel(c.wakeEvent)
	c.loop.Cancel(c.lazyEvent)
}

// Dead reports whether the channel was killed.
func (c *Chan) Dead() bool { return c.dead }

// Poke arranges for pending upcalls to be serviced now, cancelling any
// deferred doorbell. The multi-queue urgent lane uses it to let bulk traffic
// queued on sibling rings ride an interrupt wake instead of waiting out the
// lazy-doorbell window (§3.1.2 batching, generalised to N rings).
func (c *Chan) Poke() {
	if c.dead || c.Hung || c.k2u.Len() == 0 {
		return
	}
	c.loop.Cancel(c.lazyEvent)
	c.scheduleService()
}

// --- kernel side ------------------------------------------------------------

// ASend queues an asynchronous upcall (packet transmit). It never blocks
// the kernel: a full ring or dead process is an error the proxy translates
// into backpressure. A sleeping driver is not woken immediately — bulk
// upcalls ride on interrupt wakes, falling back to a deferred doorbell.
func (c *Chan) ASend(m Msg) error { return c.asend(m, false) }

// ASendUrgent queues an asynchronous upcall that wakes a sleeping driver
// immediately — used for forwarded device interrupts, which are the pump
// that keeps bulk traffic flowing.
func (c *Chan) ASendUrgent(m Msg) error { return c.asend(m, true) }

func (c *Chan) asend(m Msg, urgent bool) error {
	if c.dead {
		return ErrDead
	}
	if c.k2u.Len() >= RingSlots {
		c.stats.DroppedFull++
		return ErrRingFull
	}
	c.kern.Charge(sim.CostUchanEnqueue)
	m.enqAt = c.loop.Now()
	// A hung driver's ring only fills: nothing it holds is urgent.
	m.urgent = urgent && !c.Hung
	c.k2u.Push(m)
	c.stats.Upcalls++
	if c.Hung {
		return nil
	}
	if urgent || c.state != stateSleeping {
		c.scheduleService()
		return nil
	}
	// Sleeping driver, non-urgent message: defer the doorbell.
	if c.lazyEvent.Cancelled() {
		c.lazyEvent = c.loop.After(LazyDoorbell, c.lazyFn)
	}
	return nil
}

// Send performs a synchronous upcall (ioctl, open): the caller needs the
// reply before it can return. A hung driver yields ErrHung — the paper's
// interruptible upcall (the kernel thread is unblocked with an error).
func (c *Chan) Send(m Msg) (*Msg, error) {
	if c.dead {
		return nil, ErrDead
	}
	c.stats.SyncUpcalls++
	if c.Hung {
		// The user aborts (Ctrl-C) after a subjective timeout; no
		// virtual time model needed beyond the failed call itself.
		c.kern.Charge(sim.CostUchanEnqueue)
		return nil, ErrHung
	}
	c.nextSeq++
	m.Seq = c.nextSeq
	c.kern.Charge(sim.CostUchanEnqueue)
	// Wake accounting: if the driver was asleep, both sides pay. The
	// round trip returns the driver to whatever it was doing, so the
	// service state is not changed here.
	if c.state == stateSleeping {
		c.stats.Wakeups++
		c.kern.Charge(WakeCPUKernel + sim.CostUchanDoorbell)
		c.drv.Charge(WakeCPUDriver)
	}
	c.drv.Charge(sim.CostUchanDequeue)
	if c.DriverHandler == nil {
		return nil, ErrDead
	}
	reply, ok := c.DriverHandler(m)
	c.kern.Charge(sim.CostUchanDequeue)
	if !ok {
		return nil, ErrHung
	}
	if c.OnDrainEnd != nil {
		c.OnDrainEnd()
	}
	c.flushDown()
	// Async messages may have queued while the driver serviced the sync
	// call; make sure they get drained.
	if c.k2u.Len() > 0 && !c.Hung {
		c.scheduleService()
	}
	return &reply, nil
}

// observeGap feeds the adaptive spin estimator with the time between the
// last drain finishing and a new message arriving.
func (c *Chan) observeGap() {
	if c.drainEnd == 0 {
		return
	}
	gap := c.loop.Now() - c.drainEnd
	if gap > 50*sim.Microsecond {
		return // long idle: not a follow-up pattern
	}
	if c.gapEWMA == 0 {
		c.gapEWMA = gap
	} else {
		c.gapEWMA = (7*c.gapEWMA + gap) / 8
	}
}

// spinBudget returns the current polling window.
func (c *Chan) spinBudget() sim.Duration {
	if c.gapEWMA == 0 {
		return SpinBudget
	}
	return min(max(2*c.gapEWMA, MinSpin), MaxSpin)
}

// scheduleService arranges for the driver process to drain its ring,
// modelling wake latency and the idle-thread polling window.
func (c *Chan) scheduleService() {
	switch c.state {
	case stateSleeping:
		if !c.wakeEvent.Cancelled() {
			return // wake already in flight
		}
		c.observeGap()
		c.kern.Charge(sim.CostUchanDoorbell)
		c.stats.Wakeups++
		c.kern.Charge(WakeCPUKernel)
		c.state = stateRunning
		c.wakeEvent = c.loop.After(WakeLatency, c.wakeFn)
	case statePolling:
		// The idle thread catches the message during its spin: charge
		// the spin time actually used, no wake needed.
		c.observeGap()
		c.stats.SpinPickups++
		spin := c.loop.Now() - c.pollStart
		if budget := c.spinBudget(); spin > budget {
			spin = budget
		}
		c.drv.Charge(spin)
		c.loop.Cancel(c.pollEvent)
		c.state = stateRunning
		c.loop.After(0, c.drainFn)
	case stateRunning:
		// Already draining; the message will be picked up.
	}
}

// drain services the upcall ring in driver-process context, then polls.
func (c *Chan) drain() {
	if c.dead {
		return
	}
	c.state = stateRunning
	sawUrgent := false
	for {
		for c.k2u.Len() > 0 && !c.Hung {
			m := c.k2u.Pop()
			c.upRes.Record(c.loop.Now() - m.enqAt)
			c.drv.Charge(sim.CostUchanDequeue)
			if m.urgent {
				sawUrgent = true
			}
			if c.DriverHandler != nil {
				c.DriverHandler(m)
			}
		}
		if c.OnDrainEnd != nil {
			c.OnDrainEnd()
		}
		c.flushDown()
		// Downcall handling in the kernel may have queued fresh upcalls
		// (e.g. netif_rx → TCP ACK → transmit); service them before
		// going idle.
		if c.k2u.Len() == 0 || c.Hung || c.dead {
			break
		}
	}
	// Enter the polling window before sleeping.
	c.lastDrainUrgent = sawUrgent
	c.drainEnd = c.loop.Now()
	if c.NoPoll {
		c.state = stateSleeping
		return
	}
	c.state = statePolling
	c.pollStart = c.loop.Now()
	c.pollBudget = MinSpin
	if sawUrgent {
		// Device work often triggers prompt kernel follow-ups (the RR
		// reply); poll longer after interrupt drains.
		c.pollBudget = c.spinBudget()
	}
	c.pollEvent = c.loop.After(c.pollBudget, c.pollFn)
}

// --- driver side ------------------------------------------------------------

// Down queues an asynchronous downcall (netif_rx, carrier change). Downcalls
// batch: nothing reaches the kernel until flushDown, which the service loop
// calls after draining upcalls — or which the SUD-UML runtime triggers
// explicitly with Flush for driver-initiated work. m.Data is copied into a
// ring slot, so the caller's buffer is free again when Down returns.
func (c *Chan) Down(m Msg) error {
	if err := c.downReady(); err != nil {
		return err
	}
	if m.Data != nil {
		buf := c.slots.Get(len(m.Data))
		copy(buf, m.Data)
		m.Data = buf
	}
	c.push(m)
	return nil
}

// downSlot is Down for one ring of a multi-queue channel: m crosses in the
// codec.go slot framing, tagged with queue q, encoded straight into a ring
// slot.
func (c *Chan) downSlot(q int, m Msg) error {
	if err := c.downReady(); err != nil {
		return err
	}
	slot := c.slots.Get(slotHeaderLen + len(m.Data))
	c.push(Msg{Op: opEncodedSlot, Data: AppendSlot(slot[:0], q, m)})
	return nil
}

func (c *Chan) downReady() error {
	if c.dead {
		return ErrDead
	}
	if c.u2k.Len() >= RingSlots {
		c.stats.DroppedFull++
		return ErrRingFull
	}
	return nil
}

func (c *Chan) push(m Msg) {
	c.drv.Charge(sim.CostUchanEnqueue)
	m.enqAt = c.loop.Now()
	c.u2k.Push(m)
	c.stats.Downcalls++
	if c.NoBatch {
		c.flushDown()
	}
}

// Flush delivers all queued downcalls to the kernel handler, costing one
// doorbell for the whole batch.
func (c *Chan) Flush() { c.flushDown() }

// flushDown delivers the batch the ring holds at flush time. Downcalls the
// handlers queue go to the next batch, and a Kill from inside a handler
// drops the live ring but not the rest of this batch: the live ring swaps
// with the drained spare, and the batch drains from a local copy.
func (c *Chan) flushDown() {
	if c.u2k.Len() == 0 || c.dead {
		return
	}
	c.stats.Doorbells++
	c.drv.Charge(sim.CostUchanDoorbell)
	batch := c.u2k
	c.u2k, c.u2kSpare = c.u2kSpare, sim.FIFO[Msg]{}
	if n := uint64(batch.Len()); n > c.stats.MaxDownBatch {
		c.stats.MaxDownBatch = n
	}
	for batch.Len() > 0 {
		m := batch.Pop()
		c.downRes.Record(c.loop.Now() - m.enqAt)
		c.kern.Charge(sim.CostUchanDequeue)
		if c.KernelHandler != nil {
			c.KernelHandler(m)
		}
		c.slots.Put(m.Data)
	}
	c.u2kSpare = batch
}

// SDown performs a synchronous downcall: the driver needs the kernel's
// reply before continuing (DMA allocation, PCI config access). The kernel
// copies results directly into the caller's message buffer (§3.1), so no
// reply message is queued.
func (c *Chan) SDown(m Msg, handle func(Msg) Msg) (Msg, error) {
	if c.dead {
		return Msg{}, ErrDead
	}
	// One syscall-ish round trip.
	c.drv.Charge(sim.CostUchanEnqueue + sim.CostUchanDoorbell)
	c.kern.Charge(sim.CostUchanDequeue)
	out := handle(m)
	c.drv.Charge(sim.CostUchanDequeue)
	return out, nil
}
