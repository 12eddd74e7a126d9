package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/kvserve"
	"sud/internal/kernel/netstack"
	"sud/internal/netperf"
	"sud/internal/sim"
)

// Modelled application costs, charged to the "app" CPU account: the
// submission syscall and completion reap of an fio-style reader (the block
// harness's figures) and the recv of a netserver-style sink (the netperf
// harness's figure). The reap is drawn per read from [costAppReap/2,
// 3·costAppReap/2), so seeds differ in the timing of each read as well as
// in its LBA.
const (
	costAppSubmit sim.Duration = 700
	costAppReap   sim.Duration = 500
	costAppRecv   sim.Duration = 450
)

// blkBackoff is the mean wait of a refused submitter before it retries:
// the EAGAIN loop of an application facing a full request queue, with the
// wait drawn uniformly from [blkBackoff/2, 3·blkBackoff/2) so refused
// submitters do not retry in lockstep.
const blkBackoff = 10 * sim.Microsecond

// window tracks the measured span. An op belongs to the measurement when
// its first attempt (closed loop) or due time (open loop) falls inside it;
// ops that belong are followed to completion after the window closes.
type window struct {
	open, closed bool
}

func (w *window) counts() bool { return w.open && !w.closed }

// tally is what a load observed about the ops that belong to the window.
type tally struct {
	attempted, completed, failed uint64
	pending                      int    // attempted, not yet finished
	unanswered                   uint64 // failed without any response

	// wrong counts output-check violations; why keeps the first.
	wrong uint64
	why   string

	lat []sim.Duration // first attempt (or due time) → completion
	ids uint64         // running hash of which ops completed, in order

	// Closed loops: ops kept outstanding and the fixed gap between one
	// op's completion and the next op's first attempt (Little's law). A
	// block read's latency runs to the end of its reap, so its loop has
	// no gap.
	population int
	think      sim.Duration

	// Block loads. With timeCalls set, the load times each of its calls
	// into blockdev on the host clock.
	refusals       uint64         // ErrCongested answers to window ops
	admit, service []sim.Duration // first attempt → accepted call → callback
	timeCalls      bool
	calls          uint64
	callHost       time.Duration

	getLat, putLat []sim.Duration // kv-tenant, by op
}

// done records a completed window op: its latency and its identity (the
// LBA read, the datagram, the key and value), so the digest covers the
// inputs the seed chose as well as the timing they produced.
func (t *tally) done(lat sim.Duration, id uint64) {
	t.pending--
	t.completed++
	t.lat = append(t.lat, lat)
	t.ids = (t.ids ^ id) * 1099511628211
}

func (t *tally) fail(format string, args ...any) {
	t.wrong++
	if t.why == "" {
		t.why = fmt.Sprintf(format, args...)
	}
}

// load is a workload's generator, bound to one bed.
type load interface {
	start() error
	win() *window
	result() *tally
	stop()
}

// loadState is the part every load shares: its window, its tally, and
// whether it has been stopped.
type loadState struct {
	w       window
	t       tally
	stopped bool
}

func (s *loadState) win() *window   { return &s.w }
func (s *loadState) result() *tally { return &s.t }
func (s *loadState) stop()          { s.stopped = true }

// --- block: closed-loop random 4 KiB reads --------------------------------

type blkLoad struct {
	loadState
	b     *bed
	media []byte // what every block must read back as
	pipes []*pipe
}

// pipe is one outstanding read slot of a job: its own LBA and reap-time
// stream, and the queue its job submits on.
type pipe struct {
	gen *rng
	q   int
}

// newBlkLoad seeds the media with generated content and prepares
// jobs×depth read pipelines. Job j submits on queue j mod queues, as an fio
// job pinned to a CPU submits on that CPU's hardware queue, so every queue
// carries the same number of outstanding reads.
func newBlkLoad(b *bed, seed uint64, jobs, depth int) *blkLoad {
	geom := b.dev.Geom
	l := &blkLoad{b: b, media: make([]byte, int(geom.Blocks)*geom.BlockSize)}
	stream(seed, "media", 0).fill(l.media)
	for lba := uint64(0); lba < geom.Blocks; lba++ {
		b.ctrl.SeedMedia(lba, l.block(lba))
	}
	for p := 0; p < jobs*depth; p++ {
		l.pipes = append(l.pipes, &pipe{gen: stream(seed, "blk-pipe", uint64(p)),
			q: p / depth % b.dev.NumQueues()})
	}
	l.t.population = jobs * depth
	return l
}

func (l *blkLoad) block(lba uint64) []byte {
	bs := uint64(l.b.dev.Geom.BlockSize)
	return l.media[lba*bs : (lba+1)*bs]
}

func (l *blkLoad) start() error {
	for _, p := range l.pipes {
		l.issue(p)
	}
	return nil
}

func (l *blkLoad) issue(p *pipe) {
	if l.stopped {
		return
	}
	lba := p.gen.intn(l.b.dev.Geom.Blocks)
	first := l.b.m.Now()
	counted := l.w.counts()
	if counted {
		l.t.attempted++
		l.t.pending++
	}
	l.submit(p, lba, first, counted)
}

// submit makes one attempt at the read; a refusal backs off and retries
// the same read, keeping its first-attempt stamp.
func (l *blkLoad) submit(p *pipe, lba uint64, first sim.Time, counted bool) {
	if l.stopped {
		return
	}
	loop := l.b.m.Loop
	l.b.app.Charge(costAppSubmit)
	accepted := loop.Now()
	var h0 time.Time
	if l.t.timeCalls {
		h0 = time.Now()
	}
	err := l.b.dev.ReadAtQ(lba, p.q, func(data []byte, err error) {
		done := loop.Now()
		if err == nil && !bytes.Equal(data, l.block(lba)) {
			l.t.fail("read of LBA %d returned data that differs from the seeded media", lba)
		}
		if counted && err != nil {
			l.t.failed++
		}
		if l.stopped {
			return
		}
		// The read is complete for the application once it has reaped it;
		// the next read follows at once.
		reap := costAppReap/2 + sim.Duration(p.gen.intn(uint64(costAppReap)))
		l.b.app.Charge(reap)
		loop.After(reap, func() {
			if counted {
				l.t.admit = append(l.t.admit, accepted-first)
				l.t.service = append(l.t.service, done-accepted)
				l.t.done(loop.Now()-first, lba)
			}
			l.issue(p)
		})
	})
	if l.t.timeCalls {
		l.t.callHost += time.Since(h0)
		l.t.calls++
	}
	switch {
	case err == nil:
	case errors.Is(err, blockdev.ErrCongested):
		if counted {
			l.t.refusals++
		}
		wait := blkBackoff/2 + sim.Duration(p.gen.intn(uint64(blkBackoff)))
		loop.After(wait, func() { l.submit(p, lba, first, counted) })
	default:
		if counted {
			l.t.pending--
			l.t.unanswered++
			l.t.failed++
		}
		loop.After(blkBackoff, func() { l.issue(p) })
	}
}

// --- net-rx: open-loop seeded UDP flows into the DUT ------------------------

const (
	rxPort    = netperf.PortFlood
	rxPayload = 64
	rxHeader  = 8 // sequence number; the rest of the payload is generated
)

// rxFlow is one remote flow: a Poisson datagram stream from its own source
// port, steered by RSS onto a fixed ring.
type rxFlow struct {
	id    int
	sport uint16
	gen   *rng
	mean  sim.Duration // mean inter-arrival gap
	due   []sim.Time   // by sequence number
	seen  []bool
	count []bool // due inside the window
}

type rxLoad struct {
	loadState
	b       *bed
	seed    uint64
	flows   []*rxFlow
	bySport map[uint16]*rxFlow
	want    [rxPayload - rxHeader]byte
}

// newRxLoad prepares `flows` flows offering `pps` datagrams per second in
// aggregate. Flow f's source port is the first port at or after a seeded
// base that RSS steers onto ring f mod queues, and the flows sharing a ring
// split its share of the rate, so every ring is offered pps/queues on every
// seed.
func newRxLoad(seed uint64, flows, queues int, pps float64) *rxLoad {
	l := &rxLoad{seed: seed, bySport: map[uint16]*rxFlow{}}
	sport := uint16(20000 + stream(seed, "rx-ports", 0).intn(20000))
	for f := 0; f < flows; f++ {
		ring := f % queues
		for netstack.TxQueueForPorts(sport, rxPort, queues) != ring {
			sport++
		}
		sharing := (flows-1-ring)/queues + 1
		fl := &rxFlow{id: f, sport: sport, gen: stream(seed, "rx-flow", uint64(f)),
			mean: sim.Duration(float64(sharing) * float64(queues) * float64(sim.Second) / pps)}
		l.flows = append(l.flows, fl)
		l.bySport[sport] = fl
		sport++
	}
	return l
}

// LinkDeliver implements ethlink.Endpoint: the remote sink ignores whatever
// the DUT sends back.
func (l *rxLoad) LinkDeliver([]byte) {}

func (l *rxLoad) start() error {
	if _, err := l.b.k.Net.UDPBind(rxPort, l.recv); err != nil {
		return err
	}
	for _, fl := range l.flows {
		fl := fl
		l.b.m.Loop.After(fl.gen.exp(fl.mean), func() { l.send(fl) })
	}
	return nil
}

// body fills the generated part of datagram seq of flow f.
func (l *rxLoad) body(b []byte, f int, seq uint64) {
	(&rng{s: l.seed ^ uint64(f)<<48 ^ seq}).fill(b)
}

func (l *rxLoad) send(fl *rxFlow) {
	if l.stopped {
		return
	}
	now := l.b.m.Now()
	seq := uint64(len(fl.due))
	counted := l.w.counts()
	fl.due = append(fl.due, now)
	fl.seen = append(fl.seen, false)
	fl.count = append(fl.count, counted)
	payload := make([]byte, rxPayload)
	binary.BigEndian.PutUint64(payload, seq)
	l.body(payload[rxHeader:], fl.id, seq)
	frame := netstack.BuildUDPFrame(netperf.RemoteMAC, netperf.DUTMAC, netperf.RemoteIP,
		netperf.DUTIP, fl.sport, rxPort, payload)
	if counted {
		l.t.attempted++
		l.t.pending++
	}
	// A wire FIFO overrun loses the datagram; it stays pending and counts
	// as a loss.
	_ = l.b.link.Send(1, frame)
	l.b.m.Loop.After(fl.gen.exp(fl.mean), func() { l.send(fl) })
}

func (l *rxLoad) recv(p []byte, _ netstack.IP, sport uint16) {
	l.b.app.Charge(costAppRecv)
	fl, ok := l.bySport[sport]
	if !ok || len(p) != rxPayload {
		l.t.fail("datagram from port %d with %d bytes matches no flow", sport, len(p))
		return
	}
	seq := binary.BigEndian.Uint64(p)
	if seq >= uint64(len(fl.due)) {
		l.t.fail("flow %d delivered sequence %d it never sent", fl.id, seq)
		return
	}
	if fl.seen[seq] {
		l.t.fail("flow %d delivered sequence %d twice", fl.id, seq)
		return
	}
	fl.seen[seq] = true
	l.body(l.want[:], fl.id, seq)
	if !bytes.Equal(p[rxHeader:], l.want[:]) {
		l.t.fail("flow %d sequence %d payload corrupted", fl.id, seq)
	}
	if fl.count[seq] {
		l.t.done(l.b.m.Now()-fl.due[seq], uint64(fl.id)<<48|seq)
	}
}

// --- kv-tenant: closed-loop tenant connections over the wire ---------------

const (
	kvPortBase  = 8000
	kvKeys      = 8                     // keys owned by each connection
	kvThink     = 200 * sim.Microsecond // mean client turnaround between requests
	kvMaxVal    = 128
	kvGetShare  = 3 // GETs per PUT
	kvClientSrc = 30000
)

// kvConn is one closed-loop connection. It owns its keys, so the value a
// GET must return — the key's last acknowledged PUT — is known exactly.
type kvConn struct {
	port  uint16
	sport uint16
	gen   *rng
	keys  [kvKeys][]byte
	acked [kvKeys][]byte // nil: never written

	seq     uint64
	id      uint64 // outstanding request id, 0 when idle
	op      byte
	key     int
	val     []byte
	first   sim.Time
	counted bool
}

type kvLoad struct {
	loadState
	b       *bed
	conns   []*kvConn
	bySport map[uint16]*kvConn
}

func newKVLoad(seed uint64, tenants, conns, queues int) *kvLoad {
	l := &kvLoad{bySport: map[uint16]*kvConn{}}
	sport := uint16(kvClientSrc + stream(seed, "kv-ports", 0).intn(10000))
	for t := 0; t < tenants; t++ {
		port := uint16(kvPortBase + t)
		for i := 0; i < conns; i++ {
			// Steer the connection onto its tenant's ring, as kvserve
			// expects of its clients.
			for netstack.TxQueueForPorts(sport, port, queues) != t%queues {
				sport++
			}
			c := &kvConn{port: port, sport: sport,
				gen: stream(seed, "kv-conn", uint64(len(l.conns)))}
			for k := range c.keys {
				c.keys[k] = []byte(fmt.Sprintf("t%d-c%d-k%d-%x", t, i, k, c.gen.next()&0xFFFF))
			}
			l.conns = append(l.conns, c)
			l.bySport[sport] = c
			sport++
		}
	}
	l.t.population = len(l.conns)
	l.t.think = kvThink
	return l
}

// start staggers the connections' first requests so tenants do not fire
// in lockstep.
func (l *kvLoad) start() error {
	for i, c := range l.conns {
		c := c
		l.b.m.Loop.After(sim.Duration(i)*3*sim.Microsecond, func() { l.issue(c) })
	}
	return nil
}

func (l *kvLoad) issue(c *kvConn) {
	if l.stopped {
		return
	}
	c.seq++
	c.id = uint64(c.sport)<<32 | c.seq
	c.key = int(c.gen.intn(kvKeys))
	req := kvserve.Request{ID: c.id, Key: c.keys[c.key], Op: kvserve.OpGet}
	c.op, c.val = kvserve.OpGet, nil
	if c.gen.intn(kvGetShare+1) == 0 {
		c.op = kvserve.OpPut
		c.val = make([]byte, 1+c.gen.intn(kvMaxVal))
		c.gen.fill(c.val)
		req.Op, req.Val = kvserve.OpPut, c.val
	}
	c.first = l.b.m.Now()
	c.counted = l.w.counts()
	if c.counted {
		l.t.attempted++
		l.t.pending++
	}
	frame := netstack.BuildUDPFrame(netperf.RemoteMAC, netperf.DUTMAC, netperf.RemoteIP,
		netperf.DUTIP, c.sport, c.port, kvserve.EncodeRequest(req))
	// A wire FIFO overrun loses the request: the connection stays
	// outstanding and the op counts as never answered.
	_ = l.b.link.Send(1, frame)
}

// LinkDeliver implements ethlink.Endpoint: match a reply to its connection
// and check it against the connection's own write history.
func (l *kvLoad) LinkDeliver(frame []byte) {
	eh, ipPkt, err := netstack.ParseEth(frame)
	if err != nil || eh.EtherType != netstack.EtherTypeIPv4 {
		return
	}
	ih, l4, err := netstack.ParseIPv4(ipPkt)
	if err != nil || ih.Proto != netstack.ProtoUDP {
		return
	}
	uh, payload, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true)
	if err != nil {
		l.t.fail("reply with a bad UDP checksum")
		return
	}
	c, ok := l.bySport[uh.DstPort]
	if !ok || uh.SrcPort != c.port {
		l.t.fail("reply from port %d to port %d matches no connection", uh.SrcPort, uh.DstPort)
		return
	}
	resp, err := kvserve.DecodeResponse(payload)
	if err != nil {
		l.t.fail("undecodable reply: %v", err)
		return
	}
	if c.id == 0 || resp.ID != c.id {
		l.t.fail("reply id %#x is not the outstanding request of its connection", resp.ID)
		return
	}
	c.id = 0
	want := c.acked[c.key]
	switch {
	case c.op == kvserve.OpPut:
		if resp.Status != kvserve.StOK {
			l.t.fail("PUT %s answered status %d", c.keys[c.key], resp.Status)
		}
		c.acked[c.key] = c.val
	case want == nil:
		if resp.Status != kvserve.StNotFound {
			l.t.fail("GET of never-written %s answered status %d", c.keys[c.key], resp.Status)
		}
	case resp.Status != kvserve.StOK || !bytes.Equal(resp.Val, want):
		l.t.fail("GET %s did not return its last acknowledged PUT", c.keys[c.key])
	}
	if c.counted {
		d := l.b.m.Now() - c.first
		l.t.done(d, uint64(c.sport)<<32|uint64(c.op)<<24|uint64(c.key)<<16|uint64(len(c.val)))
		if c.op == kvserve.OpPut {
			l.t.putLat = append(l.t.putLat, d)
		} else {
			l.t.getLat = append(l.t.getLat, d)
		}
	}
	if !l.stopped {
		// Turnarounds are drawn from [kvThink/2, 3·kvThink/2), so that
		// clients do not phase-lock to the service's timers.
		think := kvThink/2 + sim.Duration(c.gen.intn(uint64(kvThink)))
		l.b.m.Loop.After(think, func() { l.issue(c) })
	}
}
