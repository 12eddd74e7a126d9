package main

import "time"

// Host-speed reference.
//
// The host this benchmark runs on is shared: over a few minutes the same
// work takes up to 1.5× longer or shorter, and every host time in a run
// drifts together. So each repetition also times a fixed reference
// computation before its span, and a run's host times are reported at a
// fixed reference speed: median measured time × refNominal ÷ median
// reference time. The reference is the benchmark's own code and allocates
// nothing, so no change to the program or to its heap can change it. The
// unscaled medians are reported beside the scaled ones.

// refNominal is the reference computation's time on an unloaded host; it
// only sets the scale of normalized times.
const refNominal = 50 * time.Millisecond

const (
	refPages  = 512 // 4 KiB pages the reference copies between
	refKeys   = 1 << 14
	refQueue  = 256 // events kept in the reference's event queue
	refEvents = 400_000
	refCopy   = 512 // bytes copied per event
)

type refEvent struct {
	at   int64
	seq  uint32
	page uint32
}

// reference is the reference computation's working set, allocated once:
// an event queue kept as a binary heap, a lookup table, and pages to copy
// between — the simulator's event loop, page map and DMA in miniature.
type reference struct {
	table map[uint64]uint32
	pages [][]byte
	queue []refEvent
	sink  uint64
}

func newReference() *reference {
	r := &reference{table: make(map[uint64]uint32, refKeys), queue: make([]refEvent, 0, refQueue+1)}
	g := &rng{s: 1}
	for k := uint64(0); k < refKeys; k++ {
		r.table[g.next()>>20] = uint32(k % refPages)
	}
	for i := 0; i < refPages; i++ {
		p := make([]byte, 4096)
		g.fill(p)
		r.pages = append(r.pages, p)
	}
	return r
}

// time runs the fixed computation and returns its host time.
func (r *reference) time() time.Duration {
	g := &rng{s: 2}
	r.queue = r.queue[:0]
	for i := uint32(0); i < refQueue; i++ {
		r.push(refEvent{at: int64(g.intn(1000)), seq: i, page: i % refPages})
	}
	start := time.Now()
	for i := uint32(0); i < refEvents; i++ {
		e := r.pop()
		page, ok := r.table[g.next()>>20]
		if !ok {
			page = e.page
		}
		src, dst := r.pages[page], r.pages[(page+1)%refPages]
		off := int(e.at) % (4096 - refCopy)
		copy(dst[off:off+refCopy], src[off:off+refCopy])
		r.sink += uint64(dst[off])
		r.push(refEvent{at: e.at + int64(g.intn(1000)), seq: refQueue + i, page: page})
	}
	return time.Since(start)
}

func (r *reference) less(i, j int) bool {
	a, b := &r.queue[i], &r.queue[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (r *reference) push(e refEvent) {
	r.queue = append(r.queue, e)
	for i := len(r.queue) - 1; i > 0; {
		p := (i - 1) / 2
		if !r.less(i, p) {
			break
		}
		r.queue[i], r.queue[p] = r.queue[p], r.queue[i]
		i = p
	}
}

func (r *reference) pop() refEvent {
	q := r.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	r.queue = q[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && r.less(l, m) {
			m = l
		}
		if l+1 < n && r.less(l+1, m) {
			m = l + 1
		}
		if m == i {
			return top
		}
		r.queue[i], r.queue[m] = r.queue[m], r.queue[i]
		i = m
	}
}
