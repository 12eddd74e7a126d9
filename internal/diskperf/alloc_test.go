package diskperf

import (
	"runtime"
	"testing"

	"sud/internal/hw"
	"sud/internal/sim"
)

// reader is one closed-loop reader whose completion and reissue callbacks
// are built once.
type reader struct {
	tb      *Testbed
	lba     uint64
	done    *uint64
	onRead  func([]byte, error)
	reissue func()
}

func newReader(tb *Testbed, lba uint64, done *uint64) *reader {
	r := &reader{tb: tb, lba: lba, done: done}
	r.onRead = func(_ []byte, err error) {
		if err == nil {
			*r.done++
		}
		r.tb.M.Loop.After(costAppReap, r.reissue)
	}
	r.reissue = r.issue
	return r
}

func (r *reader) issue() {
	r.lba = (r.lba + 13) % r.tb.Dev.Geom.Blocks
	if err := r.tb.Dev.ReadAt(r.lba, r.onRead); err != nil {
		r.tb.M.Loop.After(10*sim.Microsecond, r.reissue)
	}
}

// TestBlkAllocsPerRead runs the 4-queue SUD nvmed testbed under the copy
// guard with 16 readers × depth 6, whose callbacks are bound once so the
// harness allocates nothing per read, and counts heap allocations over a
// fixed virtual span after warmup. The read path end to end — blockdev, the
// block proxy and its guard copy, uchan, SUD-UML, nvmed, the NVMe model and
// interrupt delivery — allocates nothing per read. Allocation counts are
// deterministic for a deterministic run, so the gate is the measured
// figure, zero, not a band.
func TestBlkAllocsPerRead(t *testing.T) {
	tb, err := NewTestbed(ModeSUD, 4, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	var done uint64
	for j := 0; j < 16; j++ {
		for d := 0; d < 6; d++ {
			newReader(tb, uint64(j*977+d*100), &done).issue()
		}
	}
	tb.M.Loop.RunFor(5 * sim.Millisecond)

	base := done
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
	tb.M.Loop.RunFor(20 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	reads := done - base
	if reads < 5_000 {
		t.Fatalf("only %d reads completed in 20 ms", reads)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d reads, %d allocations", reads, allocs)
	if allocs != 0 {
		t.Fatalf("block read path allocated %d times in %d reads (%.3f per read), gate 0",
			allocs, reads, float64(allocs)/float64(reads))
	}
}
