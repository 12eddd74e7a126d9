package trace

import (
	"bytes"
	"testing"

	"sud/internal/sim"
)

func testTracer() (*Tracer, *sim.Loop, *sim.CPUStats) {
	loop := sim.NewLoop()
	cpu := sim.NewCPUStats(4)
	return New(loop, cpu), loop, cpu
}

func TestTracerDisabledIsFree(t *testing.T) {
	tr, loop, cpu := testTracer()
	tr.Event(ClassBlk, 0, 1, HopSubmit)
	loop.RunFor(sim.Microsecond)
	tr.Event(ClassBlk, 0, 1, HopComplete)
	if len(tr.Events()) != 0 {
		t.Fatalf("disabled tracer recorded events")
	}
	if cpu.Account("trace").Busy() != 0 {
		t.Fatalf("disabled tracer charged CPU")
	}
	var nilT *Tracer
	nilT.Event(ClassBlk, 0, 1, HopSubmit) // must not panic
	nilT.Mark(MarkNetRx, 0, 2)
	if _, ok := nilT.TakeMark(MarkNetRx, 0, 2); ok {
		t.Fatalf("nil tracer returned a mark")
	}
	if nilT.Enabled() || nilT.Dropped() != 0 || nilT.Events() != nil {
		t.Fatalf("nil tracer should be inert")
	}
}

func TestTracerEnabledRecordsAndCharges(t *testing.T) {
	tr, loop, cpu := testTracer()
	tr.Enable()
	tr.Event(ClassBlk, 1, 7, HopSubmit)
	loop.RunFor(3 * sim.Microsecond)
	tr.Event(ClassBlk, 1, 7, HopComplete)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[1].At-evs[0].At != sim.Time(3*sim.Microsecond) {
		t.Fatalf("span delta = %d, want 3us", evs[1].At-evs[0].At)
	}
	if got := cpu.Account("trace").Busy(); got != 2*sim.CostTraceEvent {
		t.Fatalf("trace account busy = %d, want %d", got, 2*sim.CostTraceEvent)
	}
	tr.Disable()
	tr.Event(ClassBlk, 1, 7, HopDeliver)
	if len(tr.Events()) != 2 {
		t.Fatalf("disable did not stop recording")
	}
	tr.ResetEvents()
	if len(tr.Events()) != 0 {
		t.Fatalf("reset left events")
	}
}

func TestTracerMarks(t *testing.T) {
	tr, loop, _ := testTracer()
	tr.Mark(MarkNetRx, 2, 0x3000) // always on, even with spans disabled
	loop.RunFor(5 * sim.Microsecond)
	at, ok := tr.TakeMark(MarkNetRx, 2, 0x3000)
	if !ok || loop.Now()-at != sim.Time(5*sim.Microsecond) {
		t.Fatalf("mark delta wrong: ok=%v delta=%d", ok, loop.Now()-at)
	}
	if _, ok := tr.TakeMark(MarkNetRx, 2, 0x3000); ok {
		t.Fatalf("TakeMark did not consume the mark")
	}
	// Re-marking the same key (buffer reuse) overwrites.
	tr.Mark(MarkNetRx, 2, 0x3000)
	loop.RunFor(sim.Microsecond)
	tr.Mark(MarkNetRx, 2, 0x3000)
	at, _ = tr.TakeMark(MarkNetRx, 2, 0x3000)
	if at != loop.Now() {
		t.Fatalf("re-mark did not overwrite")
	}
}

// TestTracerMarksKeepEveryKey: stamps are per (class, queue, tag), up to
// the widest queue and tag that pack into one key, and taking one never
// disturbs another. A pair too wide to pack is not stamped.
func TestTracerMarksKeepEveryKey(t *testing.T) {
	tr, loop, _ := testTracer()
	type key struct {
		c   MarkClass
		q   int
		tag uint64
	}
	keys := []key{
		{MarkNetRx, 0, 0x3000}, {MarkNetRx, 1, 0x3000}, {MarkNetTx, 0, 0x3000},
		{MarkNetRx, 255, 1<<56 - 1}, {MarkNetTx, 255, 0}, {MarkNetRx, 0, 1<<56 - 1},
	}
	for i, k := range keys {
		loop.RunFor(sim.Duration(i + 1))
		tr.Mark(k.c, k.q, k.tag)
	}
	for _, k := range []key{{MarkNetRx, 256, 0x3000}, {MarkNetRx, -1, 0x3000}, {MarkNetRx, 0, 1 << 56}} {
		tr.Mark(k.c, k.q, k.tag)
		if _, ok := tr.TakeMark(k.c, k.q, k.tag); ok {
			t.Fatalf("key %+v does not pack but was stamped", k)
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		at, ok := tr.TakeMark(k.c, k.q, k.tag)
		if want := sim.Time((i + 1) * (i + 2) / 2); !ok || at != want {
			t.Fatalf("key %+v: TakeMark = %d, %v; want %d", k, at, ok, want)
		}
		if _, ok := tr.TakeMark(k.c, k.q, k.tag); ok {
			t.Fatalf("key %+v: stamp taken twice", k)
		}
	}
}

func TestChromeJSONDeterministicRoundTrip(t *testing.T) {
	run := func() []byte {
		tr, loop, _ := testTracer()
		tr.Enable()
		for i := 0; i < 10; i++ {
			tr.Event(ClassBlk, i%2, uint64(i), HopSubmit)
			loop.RunFor(sim.Duration(i+1) * 700) // odd ns: exercises sub-µs ts
			tr.Event(ClassBlk, i%2, uint64(i), HopComplete)
		}
		return ChromeJSON(tr.Events(), tr.Dropped())
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed chrome export not byte-identical")
	}
	evs, err := ParseChromeJSON(a)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(evs) != 20 {
		t.Fatalf("parsed %d events, want 20", len(evs))
	}
	if evs[0].Class != ClassBlk || evs[0].Hop != HopSubmit || evs[1].Hop != HopComplete {
		t.Fatalf("parsed fields wrong: %+v", evs[:2])
	}
	if _, err := ParseChromeJSON([]byte("{")); err == nil {
		t.Fatalf("malformed JSON should error")
	}
}

func TestSummarizePairsAdjacentHops(t *testing.T) {
	evs := []Event{
		{At: 0, Class: ClassBlk, Hop: HopSubmit, Queue: 0, Tag: 1},
		{At: 1000, Class: ClassBlk, Hop: HopDoorbell, Queue: 0, Tag: 1},
		{At: 5000, Class: ClassBlk, Hop: HopComplete, Queue: 0, Tag: 1},
		{At: 100, Class: ClassBlk, Hop: HopSubmit, Queue: 1, Tag: 1}, // distinct span: other queue
		{At: 1300, Class: ClassBlk, Hop: HopDoorbell, Queue: 1, Tag: 1},
	}
	stats := Summarize(evs)
	if len(stats) != 2 {
		t.Fatalf("got %d hop pairs, want 2: %+v", len(stats), stats)
	}
	if stats[0].From != HopDoorbell || stats[0].To != HopComplete || stats[0].Spans != 1 {
		t.Fatalf("pair order/count wrong: %+v", stats[0])
	}
	if stats[1].From != HopSubmit || stats[1].To != HopDoorbell || stats[1].Spans != 2 {
		t.Fatalf("submit->doorbell should aggregate both spans: %+v", stats[1])
	}
	var b bytes.Buffer
	FormatSummary(&b, stats)
	if b.Len() == 0 {
		t.Fatalf("empty summary output")
	}
	b.Reset()
	FormatSummary(&b, nil)
	if b.String() != "  (no spans)\n" {
		t.Fatalf("empty-case format drifted: %q", b.String())
	}
}

// FuzzParseChromeTrace: sudtrace reads files from disk; arbitrary bytes
// must never panic the parser or the summarizer.
func FuzzParseChromeTrace(f *testing.F) {
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add(ChromeJSON([]Event{{At: 1, Class: ClassBlk, Hop: HopSubmit, Queue: 0, Tag: 9}}, 0))
	f.Add([]byte(`{"traceEvents":[{"name":"x","cat":"y","ts":-1e308,"tid":-5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ParseChromeJSON(data)
		if err != nil {
			return
		}
		var b bytes.Buffer
		FormatSummary(&b, Summarize(evs))
	})
}
