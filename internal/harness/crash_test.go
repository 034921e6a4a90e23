package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vino/internal/crash"
	"vino/internal/fault"
	"vino/internal/kernel"
)

// Acceptance tests for the crash phase: kernel panics injected across
// every crash site — including inside commit, abort and undo processing —
// must all be contained and recovered, with the post-recovery audit
// clean and the whole run byte-identical for equal seed and config.

func crashCfg() ChaosConfig {
	return ChaosConfig{Seed: 7, Extended: true, Crash: true}
}

func TestCrashPhaseContainsPanics(t *testing.T) {
	r, err := RunChaos(crashCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Survived() {
		t.Fatalf("crash run did not survive: %v", r.Violations)
	}
	if r.Panics < 20 {
		t.Errorf("panics = %d, want >= 20", r.Panics)
	}
	if r.Recoveries != r.Panics {
		t.Errorf("recoveries = %d, panics = %d: every panic must be recovered", r.Recoveries, r.Panics)
	}
	if r.Checkpoints < 2 {
		t.Errorf("checkpoints = %d, want >= 2", r.Checkpoints)
	}
	// The hard classes: crashes striking *inside* transaction cleanup.
	for _, c := range []crash.Class{crash.CommitCorruption, crash.AbortCorruption, crash.UndoEscape} {
		if r.PanicsByClass[c] == 0 {
			t.Errorf("no %s panics fired; by class: %v", c, r.PanicsByClass)
		}
	}
	// The extended taxonomy: mid-eviction and mid-accept crashes must
	// strike (and be recovered) too.
	for _, s := range []crash.Site{crash.SitePager, crash.SiteAccept} {
		if r.CrashedSites[s] == 0 {
			t.Errorf("no %s-site panics fired; by site: %v", s, r.CrashedSites)
		}
	}
	var total int64
	for _, n := range r.PanicsByClass {
		total += n
	}
	if total != r.Panics {
		t.Errorf("ByClass sums to %d, Panics = %d", total, r.Panics)
	}
	if r.FatalPanic != "" {
		t.Errorf("FatalPanic = %q on a recovered run", r.FatalPanic)
	}
	sum := r.Summary()
	if !strings.Contains(sum, "kernel panics contained") || !strings.Contains(sum, "panics by class") {
		t.Errorf("summary missing crash lines:\n%s", sum)
	}
}

// TestCrashPhaseGraftScope is the rollback-domain acceptance run: the
// same seed-7 campaign under RecoverScope "graft" must contain every
// panic with a clean post-recovery audit, scope at least some
// recoveries to the offender's domain (widening the rest), and leave
// at least one non-offender transaction alive through a recovery.
func TestCrashPhaseGraftScope(t *testing.T) {
	cfg := crashCfg()
	cfg.NCPU = 4
	cfg.RecoverScope = kernel.RecoverScopeGraft
	r, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Survived() {
		t.Fatalf("graft-scope crash run did not survive: %v", r.Violations)
	}
	if r.Panics < 20 {
		t.Errorf("panics = %d, want >= 20", r.Panics)
	}
	if r.Recoveries != r.Panics {
		t.Errorf("recoveries = %d, panics = %d: every panic must be recovered", r.Recoveries, r.Panics)
	}
	if r.ScopedRecoveries == 0 {
		t.Error("no recovery was domain-scoped")
	}
	if r.ScopedRecoveries+r.WidenedRecoveries != r.Recoveries {
		t.Errorf("scoped %d + widened %d != recoveries %d",
			r.ScopedRecoveries, r.WidenedRecoveries, r.Recoveries)
	}
	if r.NonOffenderSurvivals == 0 {
		t.Error("no non-offender work survived any scoped recovery")
	}
	if s := r.CounterSummary(); !strings.Contains(s, "recoveries scoped") {
		t.Errorf("counter summary missing the scoped-recovery line:\n%s", s)
	}
}

// TestRecoverScopeCrashFreeByteIdentical: with an explicit plan and no
// injected panics, the recovery scope is dead code — the two scopes
// must produce byte-identical traces and summaries.
func TestRecoverScopeCrashFreeByteIdentical(t *testing.T) {
	base, err := RunChaos(ChaosConfig{Seed: 3, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	run := func(scope string) *ChaosReport {
		r, err := RunChaos(ChaosConfig{
			Seed: 3, Iterations: 12, Crash: true,
			Plan: base.Plan, RecoverScope: scope,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Panics != 0 {
			t.Fatalf("scope %s: %d panics on a crash-free plan", scope, r.Panics)
		}
		return r
	}
	a := run(kernel.RecoverScopeKernel)
	b := run(kernel.RecoverScopeGraft)
	if a.TraceDump != b.TraceDump {
		t.Error("crash-free trace dumps differ between recovery scopes")
	}
	if a.Summary() != b.Summary() || a.CounterSummary() != b.CounterSummary() {
		t.Errorf("crash-free summaries differ between recovery scopes:\n%s%s\n---\n%s%s",
			a.Summary(), a.CounterSummary(), b.Summary(), b.CounterSummary())
	}
}

func TestCrashPhaseDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ChaosConfig
	}{
		{"ncpu1", crashCfg()},
		{"ncpu4", func() ChaosConfig { c := crashCfg(); c.NCPU = 4; return c }()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := RunChaos(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunChaos(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.TraceDump != b.TraceDump {
				t.Error("same seed and config produced different trace dumps")
			}
			if a.Summary() != b.Summary() {
				t.Errorf("summaries differ:\n%s\n---\n%s", a.Summary(), b.Summary())
			}
			if a.Panics == 0 {
				t.Error("no panics injected")
			}
		})
	}
}

func TestCrashPhaseOffLeavesClassicRunIdentical(t *testing.T) {
	// With the crash phase off (the default), the report must not grow
	// crash artifacts: the classic path stays byte-compatible with the
	// golden dumps, which TestGoldenChaosDump pins separately.
	r, err := RunChaos(ChaosConfig{Seed: 1, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if r.Panics != 0 || r.Recoveries != 0 || r.Checkpoints != 0 || r.FatalPanic != "" {
		t.Errorf("classic run has crash artifacts: %+v", r)
	}
	if s := r.Summary(); strings.Contains(s, "kernel panics") {
		t.Errorf("classic summary mentions panics:\n%s", s)
	}
}

// TestCrashPhaseCheckpointDirFailure: a checkpoint directory that
// cannot be created (here, a path under a regular file) fails the run
// instead of silently persisting nothing; a usable one receives
// manifests.
func TestCrashPhaseCheckpointDirFailure(t *testing.T) {
	tmp := t.TempDir()
	plain := filepath.Join(tmp, "plain")
	if err := os.WriteFile(plain, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{Seed: 7, Iterations: 4, Crash: true, CheckpointDir: filepath.Join(plain, "ckpt")}
	if _, err := RunChaos(cfg); err == nil {
		t.Fatal("RunChaos with a checkpoint dir under a regular file returned no error")
	}
	cfg.CheckpointDir = filepath.Join(tmp, "ckpt")
	if _, err := RunChaos(cfg); err != nil {
		t.Fatalf("RunChaos with a usable checkpoint dir: %v", err)
	}
	if m, _ := filepath.Glob(filepath.Join(cfg.CheckpointDir, "cp-*.gob")); len(m) == 0 {
		t.Error("usable checkpoint dir holds no manifests")
	}
}

func TestNoRecoverFatalDeterministic(t *testing.T) {
	cfg := crashCfg()
	cfg.NoRecover = true
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FatalPanic == "" {
		t.Fatal("NoRecover run survived; expected the first panic to be fatal")
	}
	if a.Recoveries != 0 {
		t.Errorf("recoveries = %d with recovery disabled", a.Recoveries)
	}
	if got, want := Signature(a), "kernel-panic "+a.FatalPanic; got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.FatalPanic != a.FatalPanic {
		t.Errorf("fatal panic differs across reruns: %q vs %q", a.FatalPanic, b.FatalPanic)
	}
}

// TestMinimizeChunkedFewerRuns pits the halving passes against the
// plain granularity-one reduction on the full crash plan (30+ rules):
// both must land on the identical minimal reproducer, and the chunked
// engine must get there in strictly fewer replays.
func TestMinimizeChunkedFewerRuns(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Crash: true, NoRecover: true, Iterations: 10}
	chunked, err := minimize(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := minimize(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if orig := chunked.Removed + len(chunked.Plan.Rules); orig < 30 {
		t.Fatalf("baseline plan has %d rules; the comparison needs a 30+ rule plan", orig)
	}
	if chunked.Signature != linear.Signature {
		t.Fatalf("signatures differ: chunked %q, linear %q", chunked.Signature, linear.Signature)
	}
	if chunked.Plan.Encode() != linear.Plan.Encode() {
		t.Errorf("minimal plans differ:\n%s---\n%s", chunked.Plan.Encode(), linear.Plan.Encode())
	}
	if chunked.Runs >= linear.Runs {
		t.Errorf("chunked ddmin used %d replays, linear %d: halving passes saved nothing",
			chunked.Runs, linear.Runs)
	}
	t.Logf("replays: chunked %d vs linear %d (plan %d -> %d rules)",
		chunked.Runs, linear.Runs, chunked.Removed+len(chunked.Plan.Rules), len(chunked.Plan.Rules))
}

func TestSignatureNormalizesDigits(t *testing.T) {
	r := &ChaosReport{Violations: []string{"lock db-37 still held after 1204ms"}, FollowupOK: true}
	if got := Signature(r); got != "lock db-# still held after #ms" {
		t.Errorf("Signature = %q", got)
	}
	if got := Signature(&ChaosReport{FollowupOK: true}); got != "" {
		t.Errorf("surviving signature = %q, want empty", got)
	}
}

func TestMinimizeRoundTrip(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Crash: true, NoRecover: true, Iterations: 10}
	res, err := Minimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Signature != Signature(base) {
		t.Errorf("minimized signature %q, baseline %q", res.Signature, Signature(base))
	}
	if len(res.Plan.Rules) >= len(base.Plan.Rules) {
		t.Errorf("minimized plan has %d rules, baseline %d: not strictly smaller",
			len(res.Plan.Rules), len(base.Plan.Rules))
	}
	if res.Removed != len(base.Plan.Rules)-len(res.Plan.Rules) {
		t.Errorf("Removed = %d, rules went %d -> %d", res.Removed, len(base.Plan.Rules), len(res.Plan.Rules))
	}
	if res.Runs < len(res.Plan.Rules)+1 {
		t.Errorf("Runs = %d, impossibly few for %d surviving rules", res.Runs, len(res.Plan.Rules))
	}

	// The reproducer round-trips through the -faultfile text format and
	// still fails with the same signature.
	decoded, err := fault.Decode(res.Plan.Encode())
	if err != nil {
		t.Fatalf("decode minimized plan: %v", err)
	}
	rcfg := cfg
	rcfg.Plan = decoded
	rep, err := RunChaos(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Signature(rep); got != res.Signature {
		t.Errorf("replayed reproducer signature %q, want %q", got, res.Signature)
	}

	// Every surviving rule is load-bearing: deleting any one loses the
	// failure. (That is the minimizer's postcondition; spot-check rule 0.)
	if len(res.Plan.Rules) > 1 {
		t.Skipf("minimal plan kept %d rules; load-bearing spot check assumes 1", len(res.Plan.Rules))
	}
	ecfg := cfg
	ecfg.Plan = &fault.Plan{Seed: res.Plan.Seed}
	rep2, err := RunChaos(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Signature(rep2); got == res.Signature {
		t.Error("empty plan reproduces the signature; minimizer result is vacuous")
	}
}
