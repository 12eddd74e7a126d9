package shadow

import (
	"errors"
	"testing"

	"sud/internal/drivers/api"
)

// fakeObj is a device object of any identity type: the class hooks count
// their calls, and drv names the driver bound to it.
type fakeObj[ID comparable] struct {
	Life
	id         ID
	drv        string
	parks, bar int
}

func (o *fakeObj[ID]) BeginQueueRecovery(q int) { o.FenceQueue(q) }
func (o *fakeObj[ID]) CompleteQueueRecovery(q int) (int, error) {
	_, err := o.UnfenceQueue(q)
	return 0, err
}
func (o *fakeObj[ID]) CompleteRecovery() (int, error) { o.EndRecovery(); return 0, nil }

type fakeTable[ID comparable] struct {
	Table[*fakeObj[ID], ID, string]
}

func newFakeTable[ID comparable]() *fakeTable[ID] {
	return &fakeTable[ID]{NewTable(Class[*fakeObj[ID], ID, string]{
		Prefix: "test", Kind: "object",
		Identity: func(o *fakeObj[ID]) ID { return o.id },
		Bind:     func(o *fakeObj[ID], drv string) { o.drv = drv },
		Park:     func(o *fakeObj[ID]) { o.parks++ },
		Bar:      func(o *fakeObj[ID]) { o.bar++ },
	})}
}

func (t *fakeTable[ID]) register(name string, id ID, drv string) (*fakeObj[ID], error) {
	return t.Register(name, id, drv, func() (*fakeObj[ID], error) {
		return &fakeObj[ID]{Life: NewLife(2), id: id, drv: drv}, nil
	})
}

// tabled reports whether name sits in the adoption and standby tables.
func (t *fakeTable[ID]) tabled(name string) (adopting, standby bool) {
	_, adopting = t.adopting[name]
	_, standby = t.standbys[name]
	return adopting, standby
}

// TestTableLifecycle runs the shared lifecycle for both identity types the
// kernel uses: a MAC address (net) and a block geometry (block).
func TestTableLifecycle(t *testing.T) {
	t.Run("MAC", func(t *testing.T) {
		testLifecycle(t, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2})
	})
	t.Run("geometry", func(t *testing.T) {
		testLifecycle(t, api.BlockGeometry{BlockSize: 512, Blocks: 100}, api.BlockGeometry{BlockSize: 4096, Blocks: 100})
	})
}

func testLifecycle[ID comparable](t *testing.T, id, other ID) {
	tb := newFakeTable[ID]()
	o, err := tb.register("d0", id, "primary")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.register("d0", id, "dup"); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("duplicate name: %v", err)
	}

	// Standby refusals: a different identity, a second standby, and a
	// promotion with no death before it.
	var bound *fakeObj[ID]
	bind := func(b *fakeObj[ID]) { bound = b }
	if err := tb.RegisterStandby("d0", other, "impostor", bind); err == nil {
		t.Fatal("standby with a mismatched identity was armed")
	}
	if err := tb.RegisterStandby("d0", id, "standby", bind); err != nil {
		t.Fatal(err)
	}
	if err := tb.RegisterStandby("d0", id, "standby2", bind); err == nil {
		t.Fatal("second standby was armed")
	}
	if _, err := tb.PromoteStandby("d0"); err == nil {
		t.Fatal("standby promoted without a death")
	}

	// A death parks once; a second death before adoption changes nothing.
	if _, err := tb.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 1 || o.parks != 1 || !o.Recovering() {
		t.Fatalf("after two deaths: epoch=%d parks=%d recovering=%v, want 1/1/true", o.Epoch(), o.parks, o.Recovering())
	}
	// Adoption wants the exact name and an equal identity.
	if _, err := tb.register("d0", other, "foreign"); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("foreign identity: %v, want a name-taken refusal", err)
	}
	rd, err := tb.PromoteStandby("d0")
	if err != nil || rd != o || bound != o || o.drv != "standby" {
		t.Fatalf("promotion: %v (same=%v bound=%v drv=%q)", err, rd == o, bound == o, o.drv)
	}
	if a, s := tb.tabled("d0"); a || s {
		t.Fatalf("after promotion: adopting=%v standby=%v", a, s)
	}
	if _, err := o.CompleteRecovery(); err != nil || o.Recovering() {
		t.Fatalf("complete: %v recovering=%v", err, o.Recovering())
	}

	// A death after adoption parks again under a new epoch.
	if _, err := tb.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	if o.Epoch() != 2 || o.parks != 2 {
		t.Fatalf("post-adoption death: epoch=%d parks=%d, want 2/2", o.Epoch(), o.parks)
	}

	// Quarantine leaves the object, driverless, in no adoption or standby
	// table, and advances the epoch once more.
	if err := tb.RegisterStandby("d0", id, "standby3", bind); err != nil {
		t.Fatal(err)
	}
	tb.Quarantine("d0")
	if a, s := tb.tabled("d0"); a || s {
		t.Fatalf("after quarantine: adopting=%v standby=%v", a, s)
	}
	if got, err := tb.Get("d0"); err != nil || got != o || o.Epoch() != 3 || o.Recovering() || o.bar != 1 {
		t.Fatalf("quarantined object: %v epoch=%d recovering=%v bars=%d", err, o.Epoch(), o.Recovering(), o.bar)
	}
	if _, err := tb.register("d0", id, "late"); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("quarantined object adopted: %v", err)
	}

	// Unregister mid-recovery removes the name from every table: the next
	// registration is a fresh object.
	d1, err := tb.register("d1", id, "primary")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.RegisterStandby("d1", id, "standby", bind); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.BeginRecovery("d1"); err != nil {
		t.Fatal(err)
	}
	tb.Unregister("d1")
	if a, s := tb.tabled("d1"); a || s || d1.bar != 1 || d1.Recovering() {
		t.Fatalf("after unregister: adopting=%v standby=%v bars=%d", a, s, d1.bar)
	}
	if _, err := tb.Get("d1"); err == nil {
		t.Fatal("unregistered object still registered")
	}
	if fresh, err := tb.register("d1", id, "next"); err != nil || fresh == d1 {
		t.Fatalf("re-registration: %v (adopted=%v)", err, fresh == d1)
	}
}

// TestQueueFence: a surgical recovery fences one queue under a new epoch,
// idempotently; a device-wide recovery subsumes it and refuses the
// surgical completion until it ends.
func TestQueueFence(t *testing.T) {
	tb := newFakeTable[[6]byte]()
	o, err := tb.register("eth0", [6]byte{1}, "primary")
	if err != nil {
		t.Fatal(err)
	}
	if !o.FenceQueue(1) || o.FenceQueue(1) {
		t.Fatal("queue fence is not idempotent")
	}
	if o.QueueEpoch(1) != 1 || !o.QueueRecovering(1) || o.QueueRecovering(0) || o.QueueEpoch(7) != o.QueueEpoch(0) {
		t.Fatalf("fenced queue state: epochs %d/%d", o.QueueEpoch(0), o.QueueEpoch(1))
	}
	if _, err := tb.BeginRecovery("eth0"); err != nil {
		t.Fatal(err)
	}
	if o.QueueRecovering(1) || o.FenceQueue(0) {
		t.Fatal("device-wide recovery did not subsume the surgical one")
	}
	if parked, err := o.UnfenceQueue(1); parked || err == nil {
		t.Fatalf("surgical completion during device-wide recovery: parked=%v err=%v", parked, err)
	}
	o.EndRecovery()
	if parked, err := o.UnfenceQueue(1); parked || err != nil {
		t.Fatalf("unfence of an armed queue: parked=%v err=%v", parked, err)
	}
	if o.QueueEpoch(1) != 1 {
		t.Fatalf("queue epoch %d moved without a fence", o.QueueEpoch(1))
	}
}
