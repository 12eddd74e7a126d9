package main

import (
	"fmt"
	"syscall"

	"sud/internal/sim"
	"sud/internal/trace"
)

// endToEnd computes the metrics a user of the modelled system sees, from a
// run's untraced repetitions. Virtual-clock values are identical across
// repetitions (the digests prove it) and come from the first; host-clock
// values are medians, scaled to the reference host speed.
func endToEnd(reps []*rep) map[string]float64 {
	r := reps[0]
	t := &r.t
	ops := float64(t.completed)
	h := hostTimes(reps)
	return map[string]float64{
		"throughput_kops":  ops / r.span.Seconds() / 1e3,
		"lat_p50_us":       quantileUS(t.lat, 0.50),
		"lat_p99_us":       quantileUS(t.lat, 0.99),
		"lat_p999_us":      quantileUS(t.lat, 0.999),
		"cpu_ns_per_op":    float64(r.cpuBusy()) / ops,
		"ok_frac":          float64(t.attempted-t.failed) / float64(t.attempted),
		"wall_s":           h.wall * h.speed,
		"host_peak_rss_mb": peakRSSMB(),
		"setup_s":          h.setup * h.speed,
		"ops":              ops,
	}
}

// cpuBusy is the virtual CPU time of every account over the span, the
// modelled application included and the trace account (free when tracing
// is off) left out.
func (r *rep) cpuBusy() sim.Duration {
	var busy sim.Duration
	for k, v := range r.c {
		if len(k) > 4 && k[:4] == "cpu." && k != "cpu.trace" {
			busy += sim.Duration(v)
		}
	}
	return busy
}

// hostMedians are a run's host times, medians over its repetitions, in
// seconds as measured; speed scales them to the reference host speed.
type hostMedians struct {
	wall, setup, ref, speed float64
}

// hostTimes takes medians over the repetitions. The reference is timed in
// every repetition too, and its median sets the run's speed factor: the
// host's speed drifts over minutes, which the factor removes, while
// repetition-to-repetition jitter is left to the medians.
func hostTimes(reps []*rep) hostMedians {
	var wall, setup, ref []float64
	for _, x := range reps {
		wall = append(wall, x.wall.Seconds())
		setup = append(setup, x.setup.Seconds())
		ref = append(ref, x.ref.Seconds())
	}
	h := hostMedians{wall: median(wall), setup: median(setup), ref: median(ref)}
	h.speed = refNominal.Seconds() / h.ref
	return h
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Layers whose host CPU share is reported; the names are the repository's
// package names. "bench" is this benchmark's own code (generators and
// checks), "other" is time no layer claims.
var hostLayers = []string{
	"sim", "hw", "pci", "iommu", "mem", "uchan", "blkproxy", "ethproxy", "sudml",
	"nvmed", "e1000e", "nvme", "e1000", "ethlink", "blockdev", "netstack", "kvserve",
	"trace", "bench", "other",
}

// CPU accounts reported per op: the modelled application, the kernel, the
// driver processes (per-queue service threads folded in) and span tracing.
// Accounts outside the list are summed as "other".
var cpuAccounts = []string{"app", "kernel", "nvmed", "e1000e", "trace", "other"}

// hopPairs are the span hops the traced run reports, by class.
var hopPairs = [][3]string{
	{trace.ClassBlk, trace.HopSubmit, trace.HopUchanEnq},
	{trace.ClassBlk, trace.HopUchanEnq, trace.HopUchanDeq},
	{trace.ClassBlk, trace.HopUchanDeq, trace.HopDoorbell},
	{trace.ClassBlk, trace.HopDoorbell, trace.HopDrvComplete},
	{trace.ClassBlk, trace.HopDrvComplete, trace.HopGuard},
	{trace.ClassBlk, trace.HopGuard, trace.HopComplete},
	{trace.ClassDev, trace.HopDevStart, trace.HopDevComplete},
	{trace.ClassNetRx, trace.HopDevComplete, trace.HopUchanEnq},
	{trace.ClassNetRx, trace.HopUchanEnq, trace.HopGuard},
	{trace.ClassNetRx, trace.HopGuard, trace.HopDeliver},
	{trace.ClassNetTx, trace.HopUchanEnq, trace.HopUchanDeq},
	{trace.ClassNetTx, trace.HopUchanDeq, trace.HopDoorbell},
	{trace.ClassNetTx, trace.HopDoorbell, trace.HopDrvComplete},
	{trace.ClassNetTx, trace.HopDrvComplete, trace.HopComplete},
}

// perLayer computes the per-layer metrics: counters, host allocation
// figures and the host CPU profile from the untraced repetitions; spans and
// call timing from the traced one. Every metric is present on every
// workload; a layer the workload does not load reads 0.
func perLayer(reps []*rep, tr *rep) map[string]float64 {
	r := reps[0]
	t, c := &r.t, r.c
	ops := float64(t.completed)
	per := func(k string) float64 { return float64(c[k]) / ops }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	h := hostTimes(reps)
	var mallocs, bytes []float64
	for _, x := range reps {
		mallocs = append(mallocs, float64(x.mallocs))
		bytes = append(bytes, float64(x.allocBytes))
	}
	m := map[string]float64{
		"sim.events_per_op":     float64(r.events) / ops,
		"sim.host_ns_per_event": h.wall * h.speed * 1e9 / float64(r.events),
		"sim.cpu_util":          float64(r.cpuBusy()) / (float64(r.cores) * float64(r.span)),

		"host.allocs_per_op": median(mallocs) / ops,
		"host.bytes_per_op":  median(bytes) / ops,
		"host.raw_wall_s":    h.wall,
		"host.raw_setup_s":   h.setup,
		"host.ref_s":         h.ref,

		"iommu.iotlb_hit_ratio": ratio(c["iommu.tlb_hits"], c["iommu.tlb_hits"]+c["iommu.tlb_misses"]),
		"iommu.walks_per_op":    per("iommu.walks"),
		"mem.inuse_delta_bytes": float64(c["mem.inuse"]),

		"uchan.upcalls_per_op":    per("uchan.upcalls"),
		"uchan.downcalls_per_op":  per("uchan.downcalls"),
		"uchan.doorbells_per_op":  per("uchan.doorbells"),
		"uchan.wakeups_per_op":    per("uchan.wakeups"),
		"uchan.spin_pickup_ratio": ratio(c["uchan.spin_pickups"], c["uchan.spin_pickups"]+c["uchan.wakeups"]),
		"uchan.residency_p50_us":  r.h.residency.PercentileUS(0.50),
		"uchan.residency_p99_us":  r.h.residency.PercentileUS(0.99),

		"blkproxy.guard_bytes_per_op": per("blkproxy.guard_bytes"),
		"blkproxy.rejects":            float64(c["blkproxy.rejects"]),
		"ethproxy.guard_bytes_per_op": per("ethproxy.guard_bytes"),
		"ethproxy.rejects":            float64(c["ethproxy.rejects"]),
		"sudml.batches_per_op":        per("sudml.batches"),

		"nvme.commands_per_op":     per("nvme.commands"),
		"nvme.sq_doorbells_per_op": per("nvme.sq_doorbells"),
		"nvme.interrupts_per_op":   per("nvme.interrupts"),

		"e1000.rx_drops_nodesc":    float64(c["e1000.rx_drops_nodesc"]),
		"e1000.interrupts_per_op":  per("e1000.interrupts"),
		"e1000.tail_writes_per_op": per("e1000.tail_writes"),
		"ethlink.drops":            float64(c["ethlink.drops"]),

		"blockdev.refusals_per_op":   float64(t.refusals) / ops,
		"blockdev.admit_wait_p50_us": quantileUS(t.admit, 0.50),
		"blockdev.admit_wait_p99_us": quantileUS(t.admit, 0.99),
		"blockdev.service_p50_us":    quantileUS(t.service, 0.50),
		"blockdev.service_p99_us":    quantileUS(t.service, 0.99),
		"blockdev.hist_p99_us":       r.h.blk.PercentileUS(0.99),

		"netstack.rx_drops":             float64(c["netstack.rx_drops"]),
		"netstack.tx_errors":            float64(c["netstack.tx_errors"]),
		"netstack.queue_stopped_per_op": per("netstack.tx_errors"),

		"kvserve.get_p99_us":   quantileUS(t.getLat, 0.99),
		"kvserve.put_p99_us":   quantileUS(t.putLat, 0.99),
		"kvserve.persist_errs": float64(c["kvserve.persist_errs"]),
	}
	for _, a := range cpuAccounts {
		m["cpu."+a+".ns_per_op"] = per("cpu." + a)
	}

	// The traced repetition.
	m["blockdev.host_ns_per_call"] = 0
	if tr.t.calls > 0 {
		m["blockdev.host_ns_per_call"] = float64(tr.t.callHost.Nanoseconds()) / float64(tr.t.calls)
	}
	m["trace.overhead_wall_pct"] = (tr.wall.Seconds()/h.wall - 1) * 100
	m["trace.spans_dropped"] = float64(tr.dropped)
	hops := map[[3]string]*trace.Hist{}
	for i := range tr.hops {
		h := &tr.hops[i]
		hops[[3]string{h.Class, h.From, h.To}] = &h.Hist
	}
	for _, p := range hopPairs {
		var p50, p99 float64
		if h, ok := hops[p]; ok {
			p50, p99 = h.PercentileUS(0.50), h.PercentileUS(0.99)
		}
		name := fmt.Sprintf("hop.%s.%s.%s", p[0], p[1], p[2])
		m[name+".p50_us"], m[name+".p99_us"] = p50, p99
	}
	m["nvme.dev_p50_us"] = m["hop.dev.dev.start.dev.complete.p50_us"]

	host := hostSamples{}
	for _, x := range reps {
		host.add(x.host)
	}
	for _, l := range hostLayers {
		m[l+".host_pct"] = host.pct(l)
	}
	m["host.gc_pct"] = host.pct("gc")
	var samples int64
	for _, v := range host {
		samples += v
	}
	m["host.profile_samples"] = float64(samples)
	return m
}
