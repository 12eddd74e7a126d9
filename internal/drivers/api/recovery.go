package api

// RecoverableDevice is the shadow-recovery surface every supervised
// kernel-side device object exposes (blockdev.Dev, netstack.Iface), so the
// supervisor (internal/sudml) and the tenant plane drive recovery through
// one interface regardless of device class.
//
// The lifecycle it names is the paper's shadow-driver extension (§2, §5.2):
// a device object survives its driver process. That lifecycle is written
// once, in internal/kernel/shadow: its table parks the object when the
// driver dies (BeginRecovery), advances the epoch that fences the dead
// incarnation's proxy, hands the object to the restarted driver or the
// promoted standby, and quarantines or unregisters it. What differs by
// class is a hook the table calls — parking (block stalls its queues, net
// stops TX) and barring (block fails every held request, net drops carrier)
// — and the replay CompleteRecovery performs: logged block requests under
// their original tags, logged TX frames through the new driver.
//
// The Queue* methods are the surgical variants from the per-queue
// confinement plane: exactly one queue's DMA sub-domain was revoked, so
// exactly that queue parks, bumps its own epoch, and replays, while
// siblings — and the driver process itself — keep running.
type RecoverableDevice interface {
	// Epoch is the device's driver-incarnation counter; it advances on
	// every device-wide recovery (and on quarantine). Proxies record the
	// epoch they bound at and are rejected once it moves on.
	Epoch() uint64
	// Recovering reports whether the device is between driver incarnations
	// (parked, awaiting adoption and CompleteRecovery).
	Recovering() bool

	// QueueEpoch is queue q's own incarnation counter, advanced by every
	// BeginQueueRecovery.
	QueueEpoch(q int) uint64
	// QueueRecovering reports whether queue q alone is parked by a
	// surgical recovery.
	QueueRecovering(q int) bool
	// BeginQueueRecovery parks exactly queue q: TX/submission holds, the
	// queue epoch advances to fence stale completions. Idempotent; a
	// device-wide recovery subsumes it.
	BeginQueueRecovery(q int)
	// CompleteQueueRecovery releases a surgically parked queue after its
	// sub-domain is re-armed and replays that queue's shadow log,
	// returning the replayed count. It is an error during a device-wide
	// recovery.
	CompleteQueueRecovery(q int) (int, error)

	// CompleteRecovery finishes a device-wide recovery after adoption:
	// bring-up is replayed into the new incarnation, parked work resumes,
	// and the shadow log is re-submitted. It returns the replayed count;
	// on failure the device stays recovering so a further restart can
	// retry.
	CompleteRecovery() (int, error)
}
