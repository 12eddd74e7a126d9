package sudml_test

import (
	"bytes"
	"testing"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/blockdev"
	"sud/internal/pci"
	"sud/internal/proxy/blkproxy"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/sudml/policy"
	"sud/internal/trace"
	"sud/internal/uchan"
)

// supBlkWorld is one machine with the NVMe-lite controller driven by a
// SUPERVISED untrusted nvmed process: kill -9 triggers shadow recovery.
type supBlkWorld struct {
	m    *hw.Machine
	k    *kernel.Kernel
	ctrl *nvme.Ctrl
	sup  *sudml.Supervisor
	dev  *blockdev.Dev
}

func newSupBlkWorld(t *testing.T, queues int) *supBlkWorld {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrl := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(queues))
	m.AttachDevice(ctrl)
	sup, err := sudml.SuperviseBlock(k, ctrl, nvmed.NewQ(queues), "nvmed", "nvme0", 1200, queues)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := k.Blk.Dev("nvme0")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Up(); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(100 * sim.Microsecond)
	return &supBlkWorld{m: m, k: k, ctrl: ctrl, sup: sup, dev: dev}
}

// saturate runs a mixed read/write closed loop over span LBAs, each block
// holding its own invariant fill byte, and returns counters the caller
// inspects after the run. outstanding bounds the offered depth.
type satStats struct {
	reads, writes  int
	readErrs       int
	writeErrs      int
	corrupt        int
	stopped        bool
	submitBackoffs int
}

func saturate(w *supBlkWorld, span uint64, outstanding int, st *satStats) {
	var issue func(seq uint64)
	issue = func(seq uint64) {
		if st.stopped {
			return
		}
		lba := (seq * 7) % span
		if seq%3 == 0 {
			err := w.dev.WriteAt(lba, block(byte(lba)), func(err error) {
				if st.stopped {
					return
				}
				if err != nil {
					st.writeErrs++
				} else {
					st.writes++
				}
				w.m.Loop.After(200, func() { issue(seq + span) })
			})
			if err != nil {
				st.submitBackoffs++
				w.m.Loop.After(10*sim.Microsecond, func() { issue(seq) })
			}
			return
		}
		err := w.dev.ReadAt(lba, func(data []byte, err error) {
			if st.stopped {
				return
			}
			if err != nil {
				st.readErrs++
			} else {
				st.reads++
				for _, b := range data {
					if b != byte(lba) {
						st.corrupt++
						break
					}
				}
			}
			w.m.Loop.After(200, func() { issue(seq + span) })
		})
		if err != nil {
			st.submitBackoffs++
			w.m.Loop.After(10*sim.Microsecond, func() { issue(seq) })
		}
	}
	for j := uint64(0); j < uint64(outstanding); j++ {
		issue(j)
	}
}

// TestBlockKillMidSaturationIsInvisible is the acceptance criterion: kill -9
// of the nvmed process during multi-queue saturation — with completions
// mid-CQ-drain and guard copies held — must complete every submitted
// request with correct data and surface no error to ReadAt/WriteAt callers.
func TestBlockKillMidSaturationIsInvisible(t *testing.T) {
	for _, queues := range []int{1, 4} {
		w := newSupBlkWorld(t, queues)
		const span = 40
		for lba := uint64(0); lba < span; lba++ {
			w.ctrl.SeedMedia(lba, block(byte(lba)))
		}
		st := &satStats{}
		saturate(w, span, 120, st)
		// Run into the middle of the storm, then kill the driver process
		// with completions in flight everywhere.
		w.m.Loop.RunFor(2 * sim.Millisecond)
		if w.dev.InFlight() == 0 {
			t.Fatalf("Q=%d: no requests in flight at kill time", queues)
		}
		w.sup.Proc().Kill()
		w.m.Loop.RunFor(30 * sim.Millisecond)
		st.stopped = true

		if w.sup.Restarts != 1 {
			t.Fatalf("Q=%d: restarts = %d, want 1", queues, w.sup.Restarts)
		}
		if w.sup.LastReplayed == 0 {
			t.Fatalf("Q=%d: nothing replayed across the restart", queues)
		}
		if st.readErrs != 0 || st.writeErrs != 0 {
			t.Fatalf("Q=%d: %d read / %d write errors surfaced to callers",
				queues, st.readErrs, st.writeErrs)
		}
		if st.corrupt != 0 {
			t.Fatalf("Q=%d: %d reads returned another block's data", queues, st.corrupt)
		}
		if st.reads < 500 {
			t.Fatalf("Q=%d: only %d reads completed (recovery did not resume traffic)", queues, st.reads)
		}
		// Media integrity after recovery: every block still holds its
		// invariant pattern.
		for lba := uint64(0); lba < span; lba++ {
			if !bytes.Equal(w.ctrl.PeekMedia(lba), block(byte(lba))) {
				t.Fatalf("Q=%d: media corrupted at LBA %d after recovery", queues, lba)
			}
		}
		// The flight recorder captured the whole recovery as one ordered
		// timeline: kill → park → detect → verdict → respawn → adopt →
		// replay → drain.
		assertFlightOrder(t, w.sup.Flight.Kinds(),
			trace.FKill, trace.FPark, trace.FDetect, trace.FVerdict,
			trace.FRespawn, trace.FAdopt, trace.FReplay, trace.FDrain)
	}
}

// assertFlightOrder checks that want appears as an ordered subsequence of
// the recorded flight-event kinds (other events may be interleaved).
func assertFlightOrder(t *testing.T, kinds []string, want ...string) {
	t.Helper()
	i := 0
	for _, k := range kinds {
		if i < len(want) && k == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("flight timeline missing %q in order\nwant subsequence: %v\ngot: %v",
			want[i], want, kinds)
	}
}

// TestBlockStaleEpochCompletionRejected: a completion still signed by the
// dead incarnation's proxy — same tags as the replayed requests — must be
// dropped and counted, never matched against the new incarnation.
func TestBlockStaleEpochCompletionRejected(t *testing.T) {
	w := newSupBlkWorld(t, 2)
	w.ctrl.SeedMedia(5, block(0xAB))

	completions := 0
	var got []byte
	if err := w.dev.ReadAtQ(5, 0, func(data []byte, err error) {
		completions++
		if err == nil {
			got = append([]byte(nil), data...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(50 * sim.Microsecond) // the submit reaches the driver
	oldProxy := w.sup.Proc().Blk
	w.sup.Proc().Kill()
	w.m.Loop.RunFor(20 * sim.Millisecond) // recovery + replay complete

	// The zombie incarnation tries to complete tag 0 (now replayed and
	// live again in the new incarnation) with a bogus inline payload.
	oldProxy.HandleDowncall(0, uchan.Msg{Op: blkproxy.OpComplete,
		Data: block(0xEE), Args: [6]uint64{0, 0}})
	if oldProxy.CompStaleEpoch == 0 {
		t.Fatal("stale-epoch completion not counted")
	}
	if completions != 1 {
		t.Fatalf("request completed %d times", completions)
	}
	if !bytes.Equal(got, block(0xAB)) {
		t.Fatal("read did not return the media's data after recovery")
	}
	// The live proxy is a different incarnation and still works.
	newProxy := w.sup.Proc().Blk
	if newProxy == oldProxy {
		t.Fatal("supervisor did not produce a fresh proxy")
	}
	ok := false
	if err := w.dev.ReadAt(5, func(_ []byte, err error) { ok = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.m.Loop.RunFor(5 * sim.Millisecond)
	if !ok {
		t.Fatal("device wedged after stale completion")
	}
}

// TestBlockDoubleKillDuringReplay: the restarted process is killed again
// before its replayed requests complete; a second recovery must rebuild the
// replay schedule from the shadow log and still complete everything exactly
// once.
func TestBlockDoubleKillDuringReplay(t *testing.T) {
	w := newSupBlkWorld(t, 2)
	const span = 16
	for lba := uint64(0); lba < span; lba++ {
		w.ctrl.SeedMedia(lba, block(byte(lba)))
	}
	completions := make(map[uint64]int)
	errs := 0
	for lba := uint64(0); lba < span; lba++ {
		lba := lba
		if err := w.dev.ReadAt(lba, func(data []byte, err error) {
			completions[lba]++
			if err != nil || len(data) == 0 || data[0] != byte(lba) {
				errs++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.m.Loop.RunFor(30 * sim.Microsecond)
	// First kill; at generation 1, kill again the instant recovery hands
	// the replay to the fresh process (completions still pending).
	w.sup.OnRestart = func(gen int) {
		if gen == 1 {
			w.sup.Proc().Kill()
		}
	}
	w.sup.Proc().Kill()
	w.m.Loop.RunFor(40 * sim.Millisecond)

	if w.sup.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", w.sup.Restarts)
	}
	if errs != 0 {
		t.Fatalf("%d requests completed wrongly", errs)
	}
	for lba := uint64(0); lba < span; lba++ {
		if completions[lba] != 1 {
			t.Fatalf("LBA %d completed %d times, want exactly once", lba, completions[lba])
		}
	}
}

// TestBlockDoubleKillReplaysOriginalWriteBytes: the shadow log's payload
// copies are recycled as writes complete. The restarted process is killed
// again after part of its replay has completed, while new writes issued from
// those completions reuse the freed copies. The second replay must still
// write every block's original bytes: media reads back what was written.
func TestBlockDoubleKillReplaysOriginalWriteBytes(t *testing.T) {
	w := newSupBlkWorld(t, 2)
	const span = 48
	first := func(lba uint64) []byte { return block(0x40 + byte(lba)) }
	second := func(lba uint64) []byte { return block(0x80 + byte(lba)) }
	done := make(map[uint64]int)
	errs := 0
	afterRestart := 0
	for lba := uint64(0); lba < span; lba++ {
		if err := w.dev.WriteAt(lba, first(lba), func(err error) {
			done[lba]++
			if err != nil {
				errs++
				return
			}
			if w.sup.Restarts == 1 {
				afterRestart++
			}
			// A new write, logged in a copy recycled from a completed one.
			if err := w.dev.WriteAt(span+lba, second(lba), func(err error) {
				done[span+lba]++
				if err != nil {
					errs++
				}
			}); err != nil {
				errs++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.m.Loop.RunFor(30 * sim.Microsecond)
	pendingAtKill := 0
	w.sup.OnRestart = func(gen int) {
		if gen == 1 {
			w.m.Loop.After(150*sim.Microsecond, func() {
				pendingAtKill = w.dev.Shadow().Pending()
				w.sup.Proc().Kill()
			})
		}
	}
	w.sup.Proc().Kill()
	w.m.Loop.RunFor(40 * sim.Millisecond)

	if w.sup.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", w.sup.Restarts)
	}
	if afterRestart == 0 || afterRestart == span || pendingAtKill <= span-afterRestart {
		t.Fatalf("second kill did not land mid-replay: %d of %d replayed writes completed, %d logged at the kill",
			afterRestart, span, pendingAtKill)
	}
	if errs != 0 {
		t.Fatalf("%d writes failed", errs)
	}
	for lba := uint64(0); lba < 2*span; lba++ {
		if done[lba] != 1 {
			t.Fatalf("LBA %d completed %d times, want exactly once", lba, done[lba])
		}
		want := first(lba)
		if lba >= span {
			want = second(lba - span)
		}
		if !bytes.Equal(w.ctrl.PeekMedia(lba), want) {
			t.Fatalf("LBA %d: media does not hold the bytes written", lba)
		}
	}
}

// TestBlockQuarantineFailsParked: when supervision gives up (crash loop,
// restart budget exhausted), the parked requests must fail with ErrDown
// rather than wait forever — and under quarantine the device *survives*,
// registered but down and driverless, so the admin can inspect it and a
// fixed driver can later reclaim it.
func TestBlockQuarantineFailsParked(t *testing.T) {
	w := newSupBlkWorld(t, 2)
	w.sup.MaxRestarts = 0 // first death exhausts the restart budget
	errs := 0
	pending := 0
	for lba := uint64(0); lba < 8; lba++ {
		if err := w.dev.ReadAt(lba, func(_ []byte, err error) {
			if err != nil {
				errs++
			}
		}); err != nil {
			t.Fatal(err)
		}
		pending++
	}
	w.m.Loop.RunFor(30 * sim.Microsecond)
	w.sup.Proc().Kill()
	w.m.Loop.RunFor(20 * sim.Millisecond)
	if errs != pending {
		t.Fatalf("%d/%d parked requests failed after give-up", errs, pending)
	}
	if !w.sup.Quarantined {
		t.Fatal("supervisor not quarantined after budget exhaustion")
	}
	if w.sup.LastVerdict != policy.Quarantine {
		t.Fatalf("last verdict = %v, want quarantine", w.sup.LastVerdict)
	}
	d, err := w.k.Blk.Dev("nvme0")
	if err != nil {
		t.Fatalf("quarantined device must survive registered: %v", err)
	}
	if d.IsUp() {
		t.Fatal("quarantined device must be down")
	}
	// New I/O against the quarantined device fails immediately.
	if err := w.dev.ReadAt(0, func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	}); err == nil {
		w.m.Loop.RunFor(1 * sim.Millisecond)
		if errs != pending+1 {
			t.Fatal("post-quarantine I/O neither rejected nor failed")
		}
	}
}
