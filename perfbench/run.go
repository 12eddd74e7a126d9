package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"sud/internal/sim"
	"sud/internal/trace"
)

// workload is one named traffic mix: how to boot its machine and generator,
// how long to warm up, and the fixed virtual span every run measures.
type workload struct {
	name         string
	warmup, span sim.Duration
	boot         func(seed uint64) (*bed, load, error)
}

// rxOfferedPPS is net-rx's offered load: 80 % of the 962 Kpkt/s that the
// gigabit wire carries in 64-byte datagrams, so the receive path runs busy
// but never has to shed load.
const rxOfferedPPS = 0.8 * 962e3

var workloads = []workload{
	{name: "blk-randread", warmup: 5 * sim.Millisecond, span: 100 * sim.Millisecond,
		boot: func(seed uint64) (*bed, load, error) {
			b, err := bootBlock(4)
			if err != nil {
				return nil, nil, err
			}
			return b, newBlkLoad(b, seed, 16, 6), nil
		}},
	{name: "blk-overload", warmup: 10 * sim.Millisecond, span: 300 * sim.Millisecond,
		boot: func(seed uint64) (*bed, load, error) {
			b, err := bootBlock(1)
			if err != nil {
				return nil, nil, err
			}
			return b, newBlkLoad(b, seed, 64, 8), nil
		}},
	{name: "net-rx", warmup: 5 * sim.Millisecond, span: 100 * sim.Millisecond,
		boot: func(seed uint64) (*bed, load, error) {
			l := newRxLoad(seed, 6, 4, rxOfferedPPS)
			b, err := bootNet(4, l)
			l.b = b
			return b, l, err
		}},
	{name: "kv-tenant", warmup: 10 * sim.Millisecond, span: 100 * sim.Millisecond,
		boot: func(seed uint64) (*bed, load, error) {
			l := newKVLoad(seed, 4, 16, 4)
			b, err := bootKV(4, 4, l)
			l.b = b
			return b, l, err
		}},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

const (
	// minOps keeps ten samples beyond the 99.9th percentile.
	minOps = 10_000
	// drainCap bounds how long window ops are followed after the window
	// closes; an op still outstanding then was never answered.
	drainCap = 200 * sim.Millisecond
	// littleTol is how far a closed loop's population may stray from
	// throughput × (mean latency + think time): window-edge ops plus
	// rounding.
	littleTol = 0.03
)

// rep is one repetition: boot, warm up, measure the span, follow the
// window's ops to completion, check.
type rep struct {
	setup, wall time.Duration
	ref         time.Duration // the host-speed reference, timed before the span
	events      uint64
	mallocs     uint64
	allocBytes  uint64
	span        sim.Duration
	cores       int

	c   counters // over the span
	end counters // over the whole repetition
	h   hists
	t   tally

	checks []string // failed output checks and cross-checks
	digest string

	host hostSamples // profiled repetitions

	hops    []trace.HopStat // traced repetitions
	dropped uint64
}

// How a repetition is instrumented. A plain repetition measures the
// end-to-end metrics; the per-layer metrics profile the host CPU across
// every untraced repetition and add one traced repetition with the span
// recorder on and the benchmark timing its own calls into blockdev.
type mode int

const (
	plain mode = iota
	profiled
	traced
)

func runRep(w *workload, seed uint64, how mode, ref *reference) (*rep, error) {
	runtime.GC()
	t0 := time.Now()
	b, l, err := w.boot(seed)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", w.name, err)
	}
	if err := l.start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", w.name, err)
	}
	b.m.Loop.RunFor(w.warmup)
	r := &rep{setup: time.Since(t0), span: w.span, cores: b.m.CPU.Cores}
	t := l.result()

	c0, h0, ev0 := b.snapshot(), b.hists(), b.m.Loop.Dispatched()
	// Every span starts from a collected heap, so the garbage the boot
	// left behind is not collected inside one repetition's span and not
	// another's.
	runtime.GC()
	r.ref = ref.time()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	switch how {
	case profiled:
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	case traced:
		b.m.Trace.Enable()
		t.timeCalls = true
	}
	l.win().open = true
	start := time.Now()
	b.m.Loop.RunFor(w.span)
	r.wall = time.Since(start)
	l.win().closed = true
	switch how {
	case profiled:
		pprof.StopCPUProfile()
		if r.host, err = parseProfile(prof.Bytes()); err != nil {
			return nil, fmt.Errorf("host profile: %w", err)
		}
	case traced:
		b.m.Trace.Disable()
		t.timeCalls = false
	}
	runtime.ReadMemStats(&ms1)
	r.mallocs, r.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	r.c, r.h, r.events = b.snapshot().delta(c0), b.hists().sub(h0), b.m.Loop.Dispatched()-ev0

	for end := b.m.Now() + drainCap; t.pending > 0 && b.m.Now() < end; {
		b.m.Loop.RunFor(sim.Millisecond)
	}
	l.stop()
	r.end = b.snapshot()
	t.unanswered += uint64(t.pending)
	t.failed += uint64(t.pending)
	t.pending = 0
	// A copy, so the machine is not kept alive by the repetition.
	r.t = *t
	if how == traced {
		r.hops = trace.Summarize(b.m.Trace.Events())
		r.dropped = b.m.Trace.Dropped()
	}
	r.check()
	r.digest = r.hash()
	return r, nil
}

// check runs the output checks and the cross-checks that catch a harness
// measuring the wrong thing.
func (r *rep) check() {
	t := &r.t
	bad := func(format string, args ...any) { r.checks = append(r.checks, fmt.Sprintf(format, args...)) }
	if t.wrong > 0 {
		bad("%d wrong outputs, first: %s", t.wrong, t.why)
	}
	for _, k := range []string{"blkproxy.rejects", "ethproxy.rejects", "blockdev.bad_completions", "kvserve.persist_errs"} {
		if r.end[k] != 0 {
			bad("%s = %d on an honest driver", k, r.end[k])
		}
	}
	if uint64(len(t.lat)) != t.completed {
		bad("%d latency samples for %d completed ops", len(t.lat), t.completed)
	}
	if t.attempted != t.completed+t.unanswered {
		bad("%d attempted ≠ %d completed + %d unanswered", t.attempted, t.completed, t.unanswered)
	}
	if t.completed < minOps {
		bad("%d ops measured; the 99.9th percentile needs %d", t.completed, minOps)
	}
	if t.population > 0 && t.completed > 0 {
		x := float64(t.completed) / float64(r.span)
		n := x * (mean(t.lat) + float64(t.think))
		if dev := math.Abs(n-float64(t.population)) / float64(t.population); dev > littleTol {
			bad("Little's law: throughput × (latency + think) = %.1f outstanding, loop keeps %d", n, t.population)
		}
	}
	// The block core's own histogram counts completions inside the window;
	// the benchmark counts ops first attempted inside it. The two differ
	// by at most the ops in flight at the window's edges.
	if len(t.admit) > 0 {
		if d := int64(r.h.blk.Count()) - int64(t.completed); d > int64(t.population) || -d > int64(t.population) {
			bad("block core histogram holds %d samples, benchmark completed %d", r.h.blk.Count(), t.completed)
		}
	}
}

// hash digests every virtual-clock result of the repetition: op counts and
// identities, every latency sample in completion order, every counter delta
// and the program's histograms. Host measurements and the simulator's own event
// count are left out, so a change that only speeds up the simulator keeps
// the digest. So is the trace CPU account, which span recording charges:
// a traced repetition must digest like an untraced one.
func (r *rep) hash() string {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	t := &r.t
	for _, v := range []uint64{t.attempted, t.completed, t.failed, t.wrong, t.refusals, t.ids, uint64(r.span)} {
		put(v)
	}
	for _, s := range [][]sim.Duration{t.lat, t.admit, t.service, t.getLat, t.putLat} {
		put(uint64(len(s)))
		for _, d := range s {
			put(uint64(d))
		}
	}
	keys := make([]string, 0, len(r.c))
	for k := range r.c {
		if k == "cpu.trace" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		buf = append(buf, k...)
		put(uint64(r.c[k]))
	}
	for _, hh := range []trace.Hist{r.h.blk, r.h.residency} {
		put(hh.Count())
		put(uint64(hh.Mean()))
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			put(uint64(hh.Percentile(p)))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// slim drops the per-op samples of a repetition whose virtual results are
// known to equal the first's, keeping what the host-clock medians need.
func (r *rep) slim() {
	r.t.lat, r.t.admit, r.t.service, r.t.getLat, r.t.putLat = nil, nil, nil, nil, nil
}
