package crash

import (
	"time"

	"vino/internal/sched"
)

// Per-graft rollback domains. A domain is the slice of checkpointed
// state owned by one graft: the fs blocks and vmm pages it dirtied
// (stamped with its guard key at write time), its in-flight transaction
// undo stacks and held locks. Kernel-global state — scheduler, clock,
// log, listeners, every write made outside a graft dispatch — belongs
// to the shared base domain (owner "") and is never reverted by a
// scoped restore: completed shared writes are durable across a
// domain-scoped recovery, which is exactly what lets non-offender
// transactions survive.
//
// A scoped restore does not keep separate per-domain images. It takes
// the ring's newest image and asks each DomainScoper subsystem to
// revert only the offender's owner-stamped state to it, leaving
// everything else live. The kernel widens to a whole-kernel restore
// when cross-domain writes are detected (see Manager.DomainConflicts
// and the kernel's lock entanglement check).

// ownerLocal is the thread-local slot carrying the current rollback
// domain owner (a graft guard key, or "" for the shared base domain).
const ownerLocal = "crash.owner"

// SetOwner stamps t's subsequent kernel-state writes with the given
// rollback-domain owner and returns the previous owner so callers can
// restore it (graft dispatch nests). An empty owner reverts the thread
// to the shared base domain. Nil threads are tolerated (no-op).
func SetOwner(t *sched.Thread, owner string) (prev string) {
	if t == nil {
		return ""
	}
	prev, _ = t.Local(ownerLocal).(string)
	if owner == "" {
		t.SetLocal(ownerLocal, nil)
	} else {
		t.SetLocal(ownerLocal, owner)
	}
	return prev
}

// Owner returns the rollback-domain owner currently stamped on t (""
// for the shared base domain, and for nil threads).
func Owner(t *sched.Thread) string {
	if t == nil {
		return ""
	}
	o, _ := t.Local(ownerLocal).(string)
	return o
}

// DomainScoper is implemented by subsystems whose dirty tracking
// carries owner stamps (fs blocks, vmm pages) and that can therefore
// revert a single owner's post-checkpoint writes without disturbing
// anyone else's.
type DomainScoper interface {
	Snapshotter
	// CrashOwnerConflicts reports cross-owner overwrites involving
	// owner where both writes postdate sinceGen: reverting the
	// offender's copy of such state would also rewind another owner's
	// completed write, so recovery must widen. Descriptions are
	// human-readable, for the recovery-widened trace event.
	CrashOwnerConflicts(sinceGen uint64, owner string) []string
	// CrashRestoreDomain reverts every item stamped with owner and
	// modified after sinceGen back to its content in snap (the full
	// image captured at generation sinceGen); items the owner
	// created after the checkpoint are removed. Returns the number of
	// state bytes reverted.
	CrashRestoreDomain(owner string, snap any, sinceGen uint64) int64
}

// Auditor is implemented by subsystems with a cheap structural
// invariant check. TakeCheckpoint runs the audits and marks an entry
// tainted when any reports findings: evidence that the damage predates
// the capture, consumed by EvidenceTaint.
type Auditor interface {
	Snapshotter
	// CrashAudit returns invariant inconsistencies in the live state;
	// empty means consistent. It must be read-only and restricted to
	// invariants that hold at any instant (not quiescence-only checks),
	// since checkpoints may be taken with I/O logically in flight. It
	// runs right after the captures and may check only the state the
	// capture just took from live state, when every older part passed
	// the audit of the capture that took it.
	CrashAudit() []string
}

// EvidenceTaint returns the virtual time of the oldest ring entry whose
// capture-time audit found an invariant inconsistency. Recovery uses it
// as Panic.TaintedAt when the panic itself carries none: the corruption
// was already visible at that checkpoint, so RestoreBefore must roll
// past it.
func (m *Manager) EvidenceTaint() (time.Duration, bool) {
	for _, cp := range m.entries {
		if cp.tainted {
			return cp.at, true
		}
	}
	return 0, false
}

// DomainConflicts gathers cross-owner write conflicts involving owner
// since the newest checkpoint, across every DomainScoper subsystem.
// Non-empty means a scoped restore would be unsound and recovery must
// widen to the whole kernel.
func (m *Manager) DomainConflicts(owner string) []string {
	if len(m.entries) == 0 {
		return nil
	}
	sinceGen := m.entries[len(m.entries)-1].gen
	var out []string
	for _, s := range m.subs {
		if d, ok := s.(DomainScoper); ok {
			out = append(out, d.CrashOwnerConflicts(sinceGen, owner)...)
		}
	}
	return out
}

// RestoreDomain reverts only owner's post-checkpoint state to the
// newest image, via each DomainScoper subsystem, and drops every older
// entry. Subsystems without domain scoping are left untouched — their
// live state survives, which is the point. Returns the checkpoint's
// virtual time and the bytes reverted. The entry remains in the ring,
// so a later whole-kernel restore (or another scoped one) replays the
// same image.
func (m *Manager) RestoreDomain(owner string) (time.Duration, int64, bool) {
	if len(m.entries) == 0 {
		return 0, 0, false
	}
	cp := m.entries[len(m.entries)-1]
	m.entries = []*checkpoint{cp}
	var bytes int64
	for i, s := range m.subs {
		if i >= len(cp.snap) {
			continue
		}
		if d, ok := s.(DomainScoper); ok {
			bytes += d.CrashRestoreDomain(owner, cp.snap[i], cp.gen)
		}
	}
	return cp.at, bytes, true
}

// RecordScopedRecovery accounts one completed domain-scoped recovery
// and its reverted payload.
func (m *Manager) RecordScopedRecovery(bytes int64) {
	m.stats.Recoveries++
	m.stats.ScopedRecoveries++
	m.stats.RolledBackBytes += bytes
}

// RecordWidened accounts one scoped-recovery attempt that fell back to
// a whole-kernel restore.
func (m *Manager) RecordWidened() { m.stats.WidenedRecoveries++ }
