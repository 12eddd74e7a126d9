package shadow

import (
	"errors"
	"fmt"

	"sud/internal/drivers/api"
	"sud/internal/trace"
)

// ErrNameTaken reports a name collision at registration.
var ErrNameTaken = errors.New("name already registered")

// Life is one kernel device object's incarnation state: the driver epoch and
// recovering flag and each queue's own, embedded by netstack.Iface and
// blockdev.Dev so Epoch and QueueEpoch stay direct field reads on the
// per-frame and per-I/O paths. A Table drives the device-wide transitions;
// the device core fences queues and ends recoveries from its own steps.
type Life struct {
	// Flight is the flight recorder the supervisor shares with the object
	// (nil-safe): park, adopt, replay and drain land here.
	Flight *trace.Flight

	epoch      uint64
	recovering bool
	queues     []queueLife
}

type queueLife struct {
	epoch      uint64
	recovering bool
}

// NewLife returns the state of a fresh object with the given queue count.
func NewLife(queues int) Life { return Life{queues: make([]queueLife, queues)} }

func (l *Life) life() *Life { return l }

// Epoch is the object's driver incarnation, advanced by every death and by
// quarantine: proxies bound at an older epoch are fenced.
func (l *Life) Epoch() uint64 { return l.epoch }

// Recovering reports whether the object is between driver incarnations.
func (l *Life) Recovering() bool { return l.recovering }

// QueueEpoch is queue q's own incarnation, advanced by its quarantines.
func (l *Life) QueueEpoch(q int) uint64 { return l.queues[l.ClampQ(q)].epoch }

// QueueRecovering reports whether queue q alone is parked by a surgical
// recovery.
func (l *Life) QueueRecovering(q int) bool { return l.queues[l.ClampQ(q)].recovering }

// NumQueues reports the object's queue-context count.
func (l *Life) NumQueues() int { return len(l.queues) }

// ClampQ maps a queue index into range (queue 0 otherwise).
func (l *Life) ClampQ(q int) int {
	if q < 0 || q >= len(l.queues) {
		return 0
	}
	return q
}

// FenceQueue is the shared step of a surgical BeginQueueRecovery: queue q
// recovers under a new epoch. It reports false, changing nothing, when q is
// already parked or a device-wide recovery subsumes the surgical one.
func (l *Life) FenceQueue(q int) bool {
	qs := &l.queues[l.ClampQ(q)]
	if l.recovering || qs.recovering {
		return false
	}
	qs.recovering = true
	qs.epoch++
	return true
}

// UnfenceQueue is the shared step of CompleteQueueRecovery: it reports
// whether q was parked, releasing it; it is an error while a device-wide
// recovery owns every queue.
func (l *Life) UnfenceQueue(q int) (bool, error) {
	if l.recovering {
		return false, errors.New("shadow: device-wide recovery in progress")
	}
	qs := &l.queues[l.ClampQ(q)]
	if !qs.recovering {
		return false, nil
	}
	qs.recovering = false
	return true, nil
}

// EndRecovery ends a device-wide recovery once the new incarnation's
// bring-up succeeded (CompleteRecovery), before parked work is released.
func (l *Life) EndRecovery() { l.recovering = false }

// end closes the object's recovery for good: nothing is parked, on the
// device or on any queue.
func (l *Life) end() {
	l.recovering = false
	for q := range l.queues {
		l.queues[q].recovering = false
	}
}

// Object is what a Table holds: a device object with its embedded Life.
type Object interface {
	api.RecoverableDevice
	life() *Life
}

// Class is what differs between the device classes a Table serves: the
// names in its errors, the object's identity (MAC for net, geometry for
// block), and the hooks the table calls at fixed points.
type Class[O Object, ID comparable, D any] struct {
	Prefix, Kind string // error prefix and object noun: "netstack", "interface"

	Identity func(O) ID
	Bind     func(O, D) // hand the object to a new driver (adoption, promotion)
	Park     func(O)    // on a death: hold the object's work for the next driver
	Bar      func(O)    // on quarantine and unregister: nothing may wait on the driver
}

// Table is the kernel's registry of one device class and the one recovery
// lifecycle every class shares (§2, §5.2's restartable drivers): objects by
// name, the objects awaiting adoption after their driver died, and the hot
// standbys armed for live objects. A registration adopts a recovering object
// only by exact name and equal identity: a renamed object is still found,
// because the proxy's registration retry walks the name template.
type Table[O Object, ID comparable, D any] struct {
	cls      Class[O, ID, D]
	objs     map[string]O
	adopting map[string]O
	standbys map[string]func(O) // binds the armed standby at promotion
}

// NewTable returns an empty table for cls.
func NewTable[O Object, ID comparable, D any](cls Class[O, ID, D]) Table[O, ID, D] {
	return Table[O, ID, D]{cls: cls, objs: make(map[string]O), adopting: make(map[string]O),
		standbys: make(map[string]func(O))}
}

// Register binds drv to name. An object awaiting adoption under name with
// identity id is adopted: the new driver backs the object every handle
// already points at. Otherwise create builds a fresh object, unless the
// name is taken.
func (t *Table[O, ID, D]) Register(name string, id ID, drv D, create func() (O, error)) (O, error) {
	if o, ok := t.adopting[name]; ok && t.cls.Identity(o) == id {
		t.adopt(name, o, "restarted driver")
		t.cls.Bind(o, drv)
		return o, nil
	}
	if _, dup := t.objs[name]; dup {
		var none O
		return none, fmt.Errorf("%s: %s %q: %w", t.cls.Prefix, t.cls.Kind, name, ErrNameTaken)
	}
	o, err := create()
	if err == nil {
		t.objs[name] = o
	}
	return o, err
}

func (t *Table[O, ID, D]) adopt(name string, o O, by string) {
	delete(t.adopting, name)
	o.life().Flight.Recordf(trace.FAdopt, "%s epoch %d adopted by %s", name, o.Epoch(), by)
}

// Get looks an object up by name.
func (t *Table[O, ID, D]) Get(name string) (O, error) {
	o, ok := t.objs[name]
	if !ok {
		return o, fmt.Errorf("%s: no %s %q", t.cls.Prefix, t.cls.Kind, name)
	}
	return o, nil
}

// BeginRecovery parks name's object: its driver died under supervision.
// The epoch advances, cutting off the dead incarnation's proxy, any
// surgical recovery is subsumed, the class parks the object's work, and the
// object awaits adoption. A second death before anyone adopted changes
// nothing; a death after adoption (the new incarnation dying mid-replay)
// parks again and advances the epoch again.
func (t *Table[O, ID, D]) BeginRecovery(name string) (api.RecoverableDevice, error) {
	o, ok := t.objs[name]
	if !ok {
		return nil, fmt.Errorf("%s: no %s %q to recover", t.cls.Prefix, t.cls.Kind, name)
	}
	l := o.life()
	if _, pending := t.adopting[name]; pending && l.recovering {
		return o, nil
	}
	l.end()
	l.recovering = true
	l.epoch++
	t.adopting[name] = o
	t.cls.Park(o)
	return o, nil
}

// RegisterStandby arms drv as the hot standby of name's live object, before
// any death. The identity check adoption makes at restart runs now, so a
// promotion can never hand the object to a driver for other hardware; one
// standby may be armed per object. bind runs when the standby is promoted.
func (t *Table[O, ID, D]) RegisterStandby(name string, id ID, drv D, bind func(O)) error {
	o, ok := t.objs[name]
	if !ok {
		return fmt.Errorf("%s: no %s %q to stand by for", t.cls.Prefix, t.cls.Kind, name)
	}
	if have := t.cls.Identity(o); have != id {
		return fmt.Errorf("%s: standby identity %v does not match %s's %v", t.cls.Prefix, id, name, have)
	}
	if _, dup := t.standbys[name]; dup {
		return fmt.Errorf("%s: %s %q already has a standby", t.cls.Prefix, t.cls.Kind, name)
	}
	t.standbys[name] = func(o O) {
		t.cls.Bind(o, drv)
		bind(o)
	}
	return nil
}

// UnregisterStandby disarms name's standby.
func (t *Table[O, ID, D]) UnregisterStandby(name string) { delete(t.standbys, name) }

// PromoteStandby binds name's armed standby to the object awaiting adoption:
// the failover half of adoption.
func (t *Table[O, ID, D]) PromoteStandby(name string) (api.RecoverableDevice, error) {
	bind, ok := t.standbys[name]
	if !ok {
		return nil, fmt.Errorf("%s: no standby armed for %q", t.cls.Prefix, name)
	}
	o, ok := t.adopting[name]
	if !ok {
		return nil, fmt.Errorf("%s: %s %q is not awaiting adoption", t.cls.Prefix, t.cls.Kind, name)
	}
	delete(t.standbys, name)
	t.adopt(name, o, "promoted standby")
	bind(o)
	return o, nil
}

// Quarantine bars name's driver while the object survives, driverless, for
// the admin: recovery ends, the class bars the object's work, and the epoch
// advances once more so nothing the barred incarnation holds can reach it.
func (t *Table[O, ID, D]) Quarantine(name string) { t.retire(name, false) }

// Unregister removes name's object (driver removal); mid-recovery it aborts
// the recovery the way Quarantine does.
func (t *Table[O, ID, D]) Unregister(name string) { t.retire(name, true) }

// retire ends name's lifecycle: no registration can adopt the object and no
// standby can be promoted to it.
func (t *Table[O, ID, D]) retire(name string, remove bool) {
	o, ok := t.objs[name]
	if !ok {
		return
	}
	delete(t.adopting, name)
	delete(t.standbys, name)
	l := o.life()
	l.end()
	if remove {
		delete(t.objs, name)
	} else {
		l.epoch++
	}
	t.cls.Bar(o)
}
