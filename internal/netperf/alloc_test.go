package netperf

import (
	"runtime"
	"testing"

	"sud/internal/hw"
	"sud/internal/kernel/netstack"
	"sud/internal/sim"
)

// rxAllocsPerFrameMax gates the host allocations the receive path makes per
// delivered frame, end to end: the remote's frame build, the wire, the
// device, the untrusted driver, uchan, the proxy guard and the stack.
// Allocation counts are deterministic for a deterministic run, so the gate
// is the measured figure, 1.011, rounded up to two decimals, not a band.
// One of those is the remote's per-frame build; the link's wire copy and
// the NIC's FIFO copy come from free lists, and the DUT side allocates
// nothing per frame.
const rxAllocsPerFrameMax = 1.02

// TestRXAllocsPerFrame runs the multi-queue SUD e1000e receive testbed (4
// RSS rings, 6 flows at 80 % of the gigabit 64-byte wire rate, copy guard)
// and counts heap allocations over a fixed virtual span after warmup,
// divided by the datagrams the socket received in it.
func TestRXAllocsPerFrame(t *testing.T) {
	tb, err := NewMultiFlowTestbed(4, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	sock, err := tb.K.Net.UDPBind(PortFlood, func([]byte, netstack.IP, uint16) {})
	if err != nil {
		t.Fatal(err)
	}
	const flows, perFlow = 6, 962_000 * 8 / 10 / 6
	tb.EthRemote.StartFloodFlows(64, perFlow, flows, rxFloodBaseSport, PortFlood)
	tb.M.Loop.RunFor(5 * sim.Millisecond)

	base := sock.RxDatagrams
	// One P across the window: the world restarted after ReadMemStats then
	// has no idle P to wake, so the runtime starts no OS thread whose own
	// allocations would land in the count. The simulation is
	// single-threaded, so the run itself is unchanged.
	procs := runtime.GOMAXPROCS(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb.M.Loop.RunFor(20 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	frames := sock.RxDatagrams - base
	if frames < 10_000 {
		t.Fatalf("only %d frames delivered in 20 ms", frames)
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
	t.Logf("%d frames, %.3f allocations per frame", frames, perFrame)
	if perFrame > rxAllocsPerFrameMax {
		t.Fatalf("receive path allocates %.3f times per delivered frame, gate %.2f", perFrame, rxAllocsPerFrameMax)
	}
}
