package harness

import (
	"fmt"

	"vino/internal/fault"
)

// The fault-plan minimizer: delta-debugging for chaos failures. A
// failing seed's plan often carries dozens of rules of which only a few
// matter; Minimize replays the run with rules deleted one at a time and
// keeps every deletion that preserves the failure signature, producing
// a minimal standalone reproducer for vinosim chaos -faultfile.

// MinimizeResult is the outcome of a minimization.
type MinimizeResult struct {
	// Plan is the minimal plan: every remaining rule is necessary (its
	// lone deletion loses the signature).
	Plan *fault.Plan
	// Signature is the failure identity every kept candidate reproduced.
	Signature string
	// Runs counts chaos replays performed (including the baseline).
	Runs int
	// Removed counts rules deleted from the original plan.
	Removed int
}

// Minimize delta-debugs the failing run's fault plan. The config must
// fail as given (non-empty Signature) — typically a crash run replayed
// under NoRecover so the first contained panic is the failure — and the
// result's plan is strictly smaller unless every rule is load-bearing.
//
// The reduction is ddmin: halving passes first delete whole chunks of
// rules (size n/2, then n/4, ... down to pairs), so a plan whose failure
// needs only a few rules sheds most of its bulk in O(log n) replays;
// a final greedy pass at granularity one then tries each remaining rule
// in turn until a full pass removes nothing, which makes the result
// exact — every surviving rule's lone deletion loses the signature.
// Every replay is a full deterministic chaos run, so the minimal plan
// is exact, not probabilistic.
func Minimize(cfg ChaosConfig) (*MinimizeResult, error) {
	return minimizeWith(cfg, true, Signature, true)
}

// MinimizeTo runs the same ddmin reduction preserving an arbitrary
// signature function instead of the failure signature — the campaign
// driver's shrinker, which distills every novel-NormalizedSignature
// plan whether or not the run failed. sigOf must be deterministic; the
// baseline signature it yields (which may describe a surviving run) is
// what every kept deletion must reproduce.
func MinimizeTo(cfg ChaosConfig, sigOf func(*ChaosReport) string) (*MinimizeResult, error) {
	return minimizeWith(cfg, true, sigOf, false)
}

// deleteRange returns plan with n rules removed starting at start.
func deleteRange(p *fault.Plan, start, n int) *fault.Plan {
	cand := &fault.Plan{Seed: p.Seed, Rules: make([]fault.Rule, 0, len(p.Rules)-n)}
	cand.Rules = append(cand.Rules, p.Rules[:start]...)
	cand.Rules = append(cand.Rules, p.Rules[start+n:]...)
	return cand
}

// minimize is the engine behind Minimize at the historical signature,
// kept so tests can compare chunked vs plain replay counts.
func minimize(cfg ChaosConfig, chunked bool) (*MinimizeResult, error) {
	return minimizeWith(cfg, chunked, Signature, true)
}

// minimizeWith is the ddmin engine. chunked enables the halving passes;
// false replays the plain granularity-one reduction (kept so a test can
// compare replay counts — both modes reach the same fixpoint because
// the one-rule pass always runs last). sigOf defines the identity to
// preserve; requireFailure additionally rejects baselines whose
// Signature is empty (the classic reproducer-minimizer contract).
func minimizeWith(cfg ChaosConfig, chunked bool, sigOf func(*ChaosReport) string, requireFailure bool) (*MinimizeResult, error) {
	cfg = cfg.withDefaults()
	base, err := RunChaos(cfg)
	if err != nil {
		return nil, fmt.Errorf("minimize baseline: %w", err)
	}
	sig := sigOf(base)
	if requireFailure && Signature(base) == "" {
		return nil, fmt.Errorf("minimize: run with seed %d does not fail", base.Plan.Seed)
	}

	best := base.Plan
	res := &MinimizeResult{Signature: sig, Runs: 1}
	// reproduces replays a candidate plan and reports whether the
	// failure signature survives. A candidate that breaks the harness
	// itself (not the kernel) is simply not a reproducer.
	reproduces := func(cand *fault.Plan) bool {
		ccfg := cfg
		ccfg.Plan = cand
		rep, err := RunChaos(ccfg)
		res.Runs++
		return err == nil && sigOf(rep) == sig
	}

	if chunked {
		for size := len(best.Rules) / 2; size >= 2; size /= 2 {
			for start := 0; start < len(best.Rules); {
				n := size
				if start+n > len(best.Rules) {
					n = len(best.Rules) - start
				}
				if cand := deleteRange(best, start, n); reproduces(cand) {
					best = cand // retry the same offset against the shrunk plan
				} else {
					start += n
				}
			}
		}
	}

	for {
		shrunk := false
		for i := range best.Rules {
			if cand := deleteRange(best, i, 1); reproduces(cand) {
				best = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	res.Plan = best
	res.Removed = len(base.Plan.Rules) - len(best.Rules)
	return res, nil
}
