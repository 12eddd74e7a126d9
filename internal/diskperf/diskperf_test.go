package diskperf

import (
	"runtime"
	"testing"

	"sud/internal/hw"
	"sud/internal/netperf"
	"sud/internal/sim"
)

func testOpt() netperf.Options {
	return netperf.Options{
		Warmup:        10 * sim.Millisecond,
		Window:        50 * sim.Millisecond,
		MinWindows:    3,
		MaxWindows:    4,
		HalfWidthFrac: 0.05,
	}
}

func runIOPS(t *testing.T, mode Mode, queues int) Result {
	t.Helper()
	tb, err := NewTestbed(mode, queues, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := BlockIOPS(tb, 16, 6, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlockIOPSScalesWithQueues is the block acceptance bar: Q=4 must
// deliver at least twice the Q=1 rate under the same offered load, because
// the device engines, the driver queue pairs, the uchan rings and the
// block-core queue contexts all scale per queue.
func TestBlockIOPSScalesWithQueues(t *testing.T) {
	q1 := runIOPS(t, ModeSUD, 1)
	q4 := runIOPS(t, ModeSUD, 4)
	if q1.ReadKIOPS <= 0 {
		t.Fatalf("Q=1 rate %v", q1.ReadKIOPS)
	}
	if q4.ReadKIOPS < 2*q1.ReadKIOPS {
		t.Fatalf("no multi-queue payoff: Q=4 %.1f vs Q=1 %.1f Kiops",
			q4.ReadKIOPS, q1.ReadKIOPS)
	}
	// Every ring pair carried traffic.
	for _, q := range q4.PerQueue {
		if q.Doorbells == 0 {
			t.Fatalf("queue %d idle", q.Queue)
		}
	}
}

// TestSUDMatchesKernelWhenDeviceBound mirrors the Figure 8 TCP row's story
// for storage: with a single queue pair the device is the bottleneck, so
// the untrusted configuration delivers the same IOPS as the trusted one and
// pays only CPU.
func TestSUDMatchesKernelWhenDeviceBound(t *testing.T) {
	kern := runIOPS(t, ModeKernel, 1)
	sud := runIOPS(t, ModeSUD, 1)
	if sud.ReadKIOPS < 0.95*kern.ReadKIOPS {
		t.Fatalf("SUD %.1f vs kernel %.1f Kiops", sud.ReadKIOPS, kern.ReadKIOPS)
	}
	if sud.CPU <= kern.CPU {
		t.Fatalf("SUD CPU %.3f not above kernel %.3f (isolation is not free)", sud.CPU, kern.CPU)
	}
}

// TestCompletionsBatchPerDoorbell checks the batched completion payoff: a
// busy queue delivers many completions per driver doorbell, not one.
func TestCompletionsBatchPerDoorbell(t *testing.T) {
	res := runIOPS(t, ModeSUD, 1)
	if res.CompsPerDoorbell < 4 {
		t.Fatalf("completions per doorbell = %.2f", res.CompsPerDoorbell)
	}
}

// TestKillRecoveryInvisible drives the recovery smoke the CI step records:
// kill -9 of the supervised nvmed process mid-saturation must complete
// every request with correct data (zero app-visible errors), replay the
// in-flight log, and resume the workload.
func TestKillRecoveryInvisible(t *testing.T) {
	tb, err := NewSupervisedTestbed(2, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := KillRecovery(tb, 8, 4, 2*sim.Millisecond, 60*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d app-visible errors across the kill", res.Errors)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if res.Replayed == 0 {
		t.Fatal("no requests replayed")
	}
	if res.RecoveryLatencyUS <= 0 {
		t.Fatal("no recovery latency measured")
	}
	if res.Completed < 1000 {
		t.Fatalf("only %d requests completed (workload did not resume)", res.Completed)
	}
}

// TestCopyGuardReadLoopAllocatesLittle: under the copy guard every read
// payload lands in its queue's reused landing buffer, and the device and
// the driver fetch into staging buffers, so a Q=4 SUD read loop allocates
// far less than one block per read on the host.
func TestCopyGuardReadLoopAllocatesLittle(t *testing.T) {
	tb, err := NewTestbed(ModeSUD, 4, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	const outstanding, want = 64, 10000
	reads := 0
	stopped := false
	var issue func(seq uint64)
	issue = func(seq uint64) {
		lba := (seq * 13) % tb.Dev.Geom.Blocks
		if err := tb.Dev.ReadAt(lba, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("read %d: %v", lba, err)
				return
			}
			reads++
			if !stopped {
				issue(seq + outstanding)
			}
		}); err != nil {
			t.Fatalf("submit %d: %v", lba, err)
		}
	}
	for s := uint64(0); s < outstanding; s++ {
		issue(s)
	}
	tb.M.Loop.RunFor(sim.Millisecond) // warm every pool and map
	start := reads
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb.M.Loop.RunFor(30 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	stopped = true
	n := reads - start
	if n < want {
		t.Fatalf("only %d reads completed in the measured span", n)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n); per >= 1024 {
		t.Fatalf("%.0f host bytes allocated per read over %d reads, want < 1024", per, n)
	} else {
		t.Logf("%.0f host bytes allocated per read over %d reads", per, n)
	}
}
