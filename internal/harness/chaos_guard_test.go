package harness

import (
	"strings"
	"testing"

	"vino/internal/guard"
	"vino/internal/trace"
)

// TestChaosGuardDeterminism extends the headline determinism claim to
// the supervised configuration: with the guard armed and install
// options randomized, two same-seed runs are still byte-identical and
// the full escalation ladder (quarantine, probation, expulsion) shows
// up in the trace.
func TestChaosGuardDeterminism(t *testing.T) {
	pol := guard.DefaultPolicy()
	cfg := ChaosConfig{Seed: 7, Iterations: 32, Guard: &pol, VaryInstalls: true}
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
	if !a.Survived() {
		t.Fatalf("kernel did not survive: %v (follow-up ok: %v)", a.Violations, a.FollowupOK)
	}
	for _, kind := range []trace.Kind{trace.GraftQuarantine, trace.GraftProbation, trace.GraftExpel} {
		if !strings.Contains(a.TraceDump(), string(kind)) {
			t.Errorf("trace kind %q missing from supervised chaos dump", kind)
		}
	}
	if a.GuardHealth == nil {
		t.Fatal("GuardHealth not attached to the report")
	}
	if a.GuardHealth.Expulsions() == 0 {
		t.Error("no graft was expelled despite persistent misbehavior")
	}
	if a.GuardHealth.Quarantines() == 0 {
		t.Error("no quarantine recorded")
	}
	if !strings.Contains(a.Summary(), "guard") {
		t.Errorf("summary missing the guard line:\n%s", a.Summary())
	}
	if !strings.Contains(a.GuardHealth.Table(), "expelled") {
		t.Errorf("health table missing expelled row:\n%s", a.GuardHealth.Table())
	}
}

// TestChaosGuardCounters checks the per-run counter surface: watchdog
// fires and per-class injection counts reach the report and the
// CounterSummary text.
func TestChaosGuardCounters(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Seed: 1, Iterations: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.WatchdogFires == 0 {
		t.Error("no watchdog fires surfaced")
	}
	if len(r.InjectedByClass) == 0 {
		t.Error("no per-class injection counts surfaced")
	}
	var total int64
	for _, n := range r.InjectedByClass {
		total += n
	}
	if total != r.Injected {
		t.Errorf("per-class counts sum to %d, report says %d injections", total, r.Injected)
	}
	cs := r.CounterSummary()
	if !strings.Contains(cs, "watchdog fires") || !strings.Contains(cs, "injections by class") {
		t.Errorf("CounterSummary incomplete:\n%s", cs)
	}
	// The unsupervised report must not grow a guard section: the default
	// configuration's Summary stays byte-compatible with the goldens.
	if r.GuardHealth != nil {
		t.Error("GuardHealth attached without a guard policy")
	}
	if strings.Contains(r.Summary(), "guard") {
		t.Errorf("unsupervised summary mentions guard:\n%s", r.Summary())
	}
}

// TestChaosVaryInstallsDeterminism pins the satellite invariant on its
// own: randomized install options without the guard still replay
// byte-identically, and actually change the schedule versus the classic
// fixed options.
func TestChaosVaryInstallsDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, Iterations: 24, VaryInstalls: true}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDump() != b.TraceDump() {
		t.Fatal("VaryInstalls broke same-seed replay")
	}
	if !a.Survived() {
		t.Fatalf("did not survive varied installs: %v", a.Violations)
	}
	classic, err := RunChaos(ChaosConfig{Seed: 3, Iterations: 24})
	if err != nil {
		t.Fatal(err)
	}
	if classic.TraceDump() == a.TraceDump() {
		t.Fatal("VaryInstalls had no effect on the schedule")
	}
}
