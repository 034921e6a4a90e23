package vmm

import (
	"testing"
	"time"

	"vino/internal/kernel"
)

// TestCheckpointImagesShareQuietSpaces: a capture shares every address
// space with no stamped change since its predecessor, copies the
// stamped ones, and never writes through to the predecessor — restoring
// the older image after the newer one was captured gives the older
// residency back.
func TestCheckpointImagesShareQuietSpaces(t *testing.T) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true, CheckpointEvery: time.Hour})
	v := New(k, 16)
	var busy, quiet *VAS
	runProc(t, k, func(p *kernel.Process) {
		busy, quiet = v.NewVAS(p.Thread), v.NewVAS(p.Thread)
		busy.Touch(p.Thread, 0)
		quiet.Touch(p.Thread, 0)
	})
	a := v.CrashSnapshot(nil, 0).(*vmmSnap)
	genA := k.Crash.Gen()
	k.Checkpoint() // advances the generation past genA

	runProc(t, k, func(p *kernel.Process) {
		busy.Touch(p.Thread, 1)
		busy.Touch(p.Thread, 2)
	})
	b := v.CrashSnapshot(a, genA).(*vmmSnap)
	if b.spaces[quiet.id] != a.spaces[quiet.id] {
		t.Error("quiet space was copied, not shared")
	}
	if b.spaces[busy.id] == a.spaces[busy.id] {
		t.Error("stamped space was shared, not copied")
	}

	for _, step := range []struct {
		name string
		snap *vmmSnap
		busy int
	}{{"A", a, 1}, {"B", b, 3}, {"A again", a, 1}} {
		v.CrashRestore(step.snap)
		if got := busy.Resident(); got != step.busy {
			t.Errorf("restore %s: busy space has %d resident pages, want %d", step.name, got, step.busy)
		}
		if got := quiet.Resident(); got != 1 {
			t.Errorf("restore %s: quiet space has %d resident pages, want 1", step.name, got)
		}
		for _, bad := range v.Check() {
			t.Errorf("restore %s: %s", step.name, bad)
		}
	}
}
