package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vino/internal/kernel"
)

// The golden files under testdata/ were captured from the single-CPU
// implementation that predates the SMP refactor. These tests pin the
// ncpu=1 configuration to that output byte-for-byte: the multi-CPU
// machinery must be invisible unless more than one CPU is configured.
//
// Regenerate (only when intentionally changing default behaviour) with:
//
//	go test ./internal/harness -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from pre-refactor golden (%d bytes got, %d want)",
			name, len(got), len(want))
		reportFirstDiff(t, got, string(want))
	}
}

func reportFirstDiff(t *testing.T, got, want string) {
	t.Helper()
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			t.Errorf("first difference at line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("outputs agree for %d lines, then lengths differ (got %d lines, want %d)",
		n, len(gl), len(wl))
}

// goldenChaosConfig keeps runs short enough for CI while exercising
// every phase and every fault class.
func goldenChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{Seed: seed, Iterations: 12}
}

func TestGoldenChaosDump(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := RunChaos(goldenChaosConfig(seed))
			if err != nil {
				t.Fatalf("RunChaos: %v", err)
			}
			if !rep.Survived() {
				t.Fatalf("chaos run did not survive:\n%s", rep.Summary())
			}
			goldenCompare(t, fmt.Sprintf("chaos-seed%d.summary", seed), rep.Summary())
			goldenCompare(t, fmt.Sprintf("chaos-seed%d.dump", seed), rep.TraceDump())
		})
	}
}

// TestGoldenCrashDump pins the crash phase's determinism artifact and
// proves two engine choices are invisible in it: a run with full-copy
// captures (no state shared between checkpoint images) and a run on
// the interpreting VM (NoTranslate, the semantic oracle) must each
// reproduce the default run byte for byte — only host cost may differ,
// never a plan, a summary, a counter or a trace. These are everything
// `vinosim crash -trace` prints. The same full-copy equivalence is
// checked with a ring of three, where RestoreBefore may restore an
// older image than the newest, and with graft-scoped recovery, where
// RestoreDomain reverts against the newest image.
func TestGoldenCrashDump(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, Extended: true, Crash: true}
	base, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if !base.Survived() {
		t.Fatalf("crash run did not survive:\n%s", base.Summary())
	}
	goldenCompare(t, "crash-seed7.summary", base.Summary())
	goldenCompare(t, "crash-seed7.dump", base.TraceDump())

	full, interp, ring, graftScope := cfg, cfg, cfg, cfg
	full.CheckpointFullCopy = true
	interp.NoTranslate = true
	ring.CheckpointRing = 3
	graftScope.RecoverScope = kernel.RecoverScopeGraft
	for _, v := range []struct {
		name string
		ref  *ChaosConfig // nil: the default run
		cfg  ChaosConfig
	}{
		{"full-copy", nil, full},
		{"interpreted", nil, interp},
		{"ring-3 full-copy", &ring, withFullCopy(ring)},
		{"graft-scope full-copy", &graftScope, withFullCopy(graftScope)},
	} {
		want := base
		if v.ref != nil {
			if want, err = RunChaos(*v.ref); err != nil {
				t.Fatalf("RunChaos (%s reference): %v", v.name, err)
			}
		}
		rep, err := RunChaos(v.cfg)
		if err != nil {
			t.Fatalf("RunChaos (%s): %v", v.name, err)
		}
		for _, a := range []struct{ what, got, want string }{
			{"plan", rep.Plan.String(), want.Plan.String()},
			{"summary", rep.Summary(), want.Summary()},
			{"counters", rep.CounterSummary(), want.CounterSummary()},
			{"trace dump", rep.TraceDump(), want.TraceDump()},
		} {
			if a.got != a.want {
				t.Errorf("%s %s diverged from the shared-image run", v.name, a.what)
				reportFirstDiff(t, a.got, a.want)
			}
		}
	}
}

func withFullCopy(cfg ChaosConfig) ChaosConfig {
	cfg.CheckpointFullCopy = true
	return cfg
}

func TestGoldenTables(t *testing.T) {
	var b strings.Builder
	for _, x := range Experiments {
		tab, err := x.Table()
		if err != nil {
			t.Fatalf("Table %d: %v", x.Number, err)
		}
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	if tab, err := BuildAbortTable(); err != nil {
		t.Fatalf("BuildAbortTable: %v", err)
	} else {
		b.WriteString(tab.String())
	}
	goldenCompare(t, "tables.txt", b.String())
}
