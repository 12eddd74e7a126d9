package tenantperf

import (
	"runtime"
	"testing"

	"sud/internal/sim"
)

// kvAllocsPerOpMax gates the host allocations per answered request of the
// SUD tenant plane, end to end: the client, the wire, the e1000 and its
// untrusted driver, uchan, the Ethernet proxy's guard, the netstack,
// kvserve, and — for PUTs — the block core, the block proxy, nvmed and the
// NVMe model. Allocation counts are deterministic for a deterministic run,
// so the gate is the measured figure, 2.282, rounded up to two decimals,
// not a band. Two per request are the client's encoded request and its
// frame; most of the rest is kvserve's write-through callback, one per PUT
// (a quarter of the requests).
const kvAllocsPerOpMax = 2.29

// TestKVAllocsPerOp runs the 4-tenant × 4-connection SUD testbed over 4
// queues and counts heap allocations over a fixed virtual span after
// warmup, divided by the replies the client accepted in it.
func TestKVAllocsPerOp(t *testing.T) {
	tb := newSUDTestbed(t)
	tb.Client.Start()
	defer tb.Client.Stop()
	tb.M.Loop.RunFor(10 * sim.Millisecond)

	base := totalReplies(tb)
	// One P across the window: the world restarted after ReadMemStats then
	// has no idle P to wake, so the runtime starts no OS thread whose own
	// allocations would land in the count. The simulation is
	// single-threaded, so the run itself is unchanged.
	procs := runtime.GOMAXPROCS(1)
	// A collection first, so the runtime's own one-time allocations (the
	// GC's background workers) fall outside the window.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb.M.Loop.RunFor(30 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	ops := totalReplies(tb) - base
	if ops < 1_000 {
		t.Fatalf("only %d replies in 30 ms", ops)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / float64(ops)
	t.Logf("%d replies, %d allocations, %.3f per op", ops, after.Mallocs-before.Mallocs, perOp)
	if perOp > kvAllocsPerOpMax {
		t.Fatalf("tenant plane allocates %.3f times per op, gate %.2f", perOp, kvAllocsPerOpMax)
	}
}
