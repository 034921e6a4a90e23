package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"vino/internal/fault"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/sched"
)

// TestChaosDeterminism is the headline determinism claim: two runs with
// the same seed produce byte-identical flight-recorder dumps.
func TestChaosDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Iterations: 32}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if a.TraceDump() != b.TraceDump() {
		t.Fatalf("same seed produced different traces:\n--- A ---\n%s\n--- B ---\n%s", a.TraceDump(), b.TraceDump())
	}
	if a.TraceTotal == 0 {
		t.Fatal("no trace events recorded")
	}
	if !a.Survived() {
		t.Fatalf("kernel did not survive: %v (follow-up ok: %v)", a.Violations, a.FollowupOK)
	}
}

// TestChaosSeedsDiffer sanity-checks that the seed matters: different
// seeds give different schedules.
func TestChaosSeedsDiffer(t *testing.T) {
	a, err := RunChaos(ChaosConfig{Seed: 1, Iterations: 24})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(ChaosConfig{Seed: 2, Iterations: 24})
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDump() == b.TraceDump() {
		t.Fatal("seeds 1 and 2 produced identical traces")
	}
}

// TestChaosPerClass runs the harness one fault class at a time and
// asserts both survival and evidence that the class actually injected.
func TestChaosPerClass(t *testing.T) {
	cases := []struct {
		class    fault.Class
		evidence func(r *ChaosReport) bool
		desc     string
	}{
		{fault.Disk, func(r *ChaosReport) bool { return r.ReadErrors+r.WriteErrors > 0 },
			"injected I/O errors surfaced"},
		{fault.Latency, func(r *ChaosReport) bool { return r.Injected > 0 },
			"latency injections fired"},
		{fault.Pressure, func(r *ChaosReport) bool { return r.Injected > 0 && r.Evictions > 0 },
			"pressure windows fired and forced evictions"},
		{fault.Net, func(r *ChaosReport) bool { return r.Churned > 0 },
			"connections were churned"},
		{fault.Graft, func(r *ChaosReport) bool { return len(r.GraftFaults) > 0 && r.Aborts > 0 },
			"misbehaving grafts installed and aborted"},
		{fault.Lock, func(r *ChaosReport) bool {
			return len(r.GraftFaults) > 0 && r.Aborts > 0
		}, "lock hoards installed and broken by time-out"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.class), func(t *testing.T) {
			r, err := RunChaos(ChaosConfig{Seed: 11, Classes: []fault.Class{tc.class}, Iterations: 32})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Survived() {
				t.Fatalf("did not survive %s faults: %v (follow-up ok: %v)", tc.class, r.Violations, r.FollowupOK)
			}
			if !tc.evidence(r) {
				t.Fatalf("no evidence of %s injection (%s):\n%s", tc.class, tc.desc, r.Summary())
			}
		})
	}
}

// TestChaosAllClassesSurvive is the acceptance bar: one run injecting
// every class, all post-abort invariants holding, clean follow-up.
func TestChaosAllClassesSurvive(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Seed: 3, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Survived() {
		t.Fatalf("did not survive: %v (follow-up ok: %v)", r.Violations, r.FollowupOK)
	}
	if got := len(r.Plan.Classes()); got != len(fault.Classes()) {
		t.Fatalf("plan covers %d classes, want %d", got, len(fault.Classes()))
	}
	if r.Injected == 0 {
		t.Fatal("nothing injected")
	}
}

// TestChaosAbortUndoRegression installs the abort-in-undo graft — take
// a lock, poison the undo stack, trap — and proves the regression the
// hardened abort path fixes: the poisoned undo handler fires during
// abort, yet the lock manager ends the invocation idle and a contender
// can take the lock.
func TestChaosAbortUndoRegression(t *testing.T) {
	plan := &fault.Plan{Seed: 0} // arm the fault callables; no scheduled rules
	k := kernel.New(kernel.Config{FaultPlan: plan, TraceDepth: 512})
	pt := k.Grafts.RegisterPoint(&graft.Point{
		Name:      "chaos/undo.fn",
		Kind:      graft.Function,
		Privilege: graft.Local,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
		Watchdog:  50 * time.Millisecond,
	})
	var res int64
	var ierr error
	k.SpawnProcess("undo-regress", graft.Root, func(p *kernel.Process) {
		g, err := p.BuildAndInstall(pt.Name, fault.GraftSource(fault.GraftAbortUndo), graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		res, ierr = pt.Invoke(p.Thread)
		if !g.Removed() {
			t.Error("aborting graft not removed")
		}
		// The wedge test: the hoard lock must be free again despite the
		// poisoned undo, so a plain acquisition succeeds immediately.
		hoard := k.FaultHoardLock()
		if !hoard.TryAcquire(p.Thread, 1) {
			t.Error("hoard lock still held after abort with poisoned undo")
		} else {
			_ = hoard.Release(p.Thread)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ierr == nil {
		t.Fatalf("expected abort, got clean result %d", res)
	}
	if res != -1 {
		t.Fatalf("fallback default not used: %d", res)
	}
	if st := k.Txns.Stats(); st.UndoPanics != 1 {
		t.Fatalf("UndoPanics = %d, want 1", st.UndoPanics)
	}
	if !k.Locks.Idle() {
		t.Fatalf("lock manager not idle: %v", k.Locks.Outstanding())
	}
}

// TestChaosWildStoreContainment runs the out-of-segment store graft on
// a fault-armed kernel and verifies SFI containment byte-for-byte.
func TestChaosWildStoreContainment(t *testing.T) {
	k := kernel.New(kernel.Config{FaultPlan: &fault.Plan{Seed: 0}})
	pt := k.Grafts.RegisterPoint(&graft.Point{
		Name:      "chaos/wild.fn",
		Kind:      graft.Function,
		Privilege: graft.Local,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
		Watchdog:  50 * time.Millisecond,
	})
	k.SpawnProcess("wild", graft.Root, func(p *kernel.Process) {
		g, err := p.BuildAndInstall(pt.Name, fault.GraftSource(fault.GraftWildStore), graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		km := g.VM().KernelMemory()
		for i := range km {
			km[i] = 0xEE
		}
		if _, err := pt.Invoke(p.Thread); err != nil {
			t.Errorf("wild store aborted under SFI: %v", err)
		}
		for i, b := range km {
			if b != 0xEE {
				t.Errorf("kernel memory corrupted at +%d", i)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosInjectedErrorsAreSentinel verifies injected I/O failures are
// distinguishable from real bugs via errors.Is.
func TestChaosInjectedErrorsAreSentinel(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Seed: 5, Classes: []fault.Class{fault.Disk}, Iterations: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadErrors+r.WriteErrors == 0 {
		t.Fatal("no I/O errors injected")
	}
	if !errors.Is(fault.ErrInjected, fault.ErrInjected) {
		t.Fatal("sentinel identity broken")
	}
	if !strings.Contains(r.TraceDump(), string(fault.Disk)+":") {
		t.Fatalf("disk injections missing from trace:\n%s", r.TraceDump())
	}
}
