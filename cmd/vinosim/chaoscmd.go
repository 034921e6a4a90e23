package main

// The chaos-family subcommands — chaos, crash, minimize — share one
// flag set and one config builder: `crash` is `chaos` with the crash
// phase armed (and its checkpoint knobs exposed), `minimize` is a
// failing crash config fed to the delta-debugger instead of printed.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	vino "vino"
)

// chaosFlags collects every chaos-family flag; register installs the
// base set, registerCrash the crash-phase set.
type chaosFlags struct {
	seed           int64
	faults         string
	quick          bool
	iterations     int
	ncpu           int
	extended       bool
	faultfile      string
	writeplan      string
	guard          bool
	guardStreak    int
	guardBackoff   time.Duration
	guardProbation int
	varyInstalls   bool
	redteam        bool

	crash          bool
	checkpoint     time.Duration
	checkpointRing int
	checkpointDir  string
	recoverScope   string
	norecover      bool
}

func (c *chaosFlags) register(fs *flag.FlagSet) {
	fs.Int64Var(&c.seed, "seed", 0, "fault-plan seed (same seed = identical trace)")
	fs.StringVar(&c.faults, "faults", "", "comma-separated fault classes (disk,latency,pressure,net,graft,lock); empty = all")
	fs.BoolVar(&c.quick, "quick", false, "abbreviated run for CI smoke tests")
	fs.IntVar(&c.iterations, "iterations", 0, "workload iterations per phase (0 = default; overrides -quick)")
	fs.IntVar(&c.ncpu, "ncpu", 1, "simulated CPU count (same seed + same ncpu = identical trace)")
	fs.BoolVar(&c.extended, "extended", false, "widen the fault surface (netio mid-stream faults, pager phase)")
	fs.StringVar(&c.faultfile, "faultfile", "", "replay the fault plan decoded from this file instead of deriving one from -seed")
	fs.StringVar(&c.writeplan, "writeplan", "", "save the run's fault plan (text form) to this file")
	fs.BoolVar(&c.guard, "guard", false, "arm the graft supervisor (health ledger, quarantine, probation, expulsion)")
	fs.IntVar(&c.guardStreak, "guard-streak", 0, "consecutive aborts before quarantine (0 = policy default)")
	fs.DurationVar(&c.guardBackoff, "guard-backoff", 0, "first quarantine backoff in virtual time (0 = policy default)")
	fs.IntVar(&c.guardProbation, "guard-probation", 0, "clean commits required to clear probation (0 = policy default)")
	fs.BoolVar(&c.varyInstalls, "varyinstalls", false, "randomize graft install options (watchdogs, transfers, handler order) from the seed")
	fs.BoolVar(&c.redteam, "redteam", false, "arm the red-team phase (SFI escape corpus + in-kernel compartment-violation probe)")
	fs.BoolVar(&showTrace, "trace", false, "dump the kernel flight recorder after the run")
}

func (c *chaosFlags) registerCrash(fs *flag.FlagSet) {
	fs.DurationVar(&c.checkpoint, "checkpoint", 20*time.Millisecond, "checkpoint cadence in virtual time")
	fs.IntVar(&c.checkpointRing, "checkpoint-ring", 0, "keep a ring of the N newest checkpoints (0 = latest only); recovery picks the newest checkpoint predating the panic's taint")
	fs.BoolVar(&c.norecover, "norecover", false, "disable recovery: the first injected panic is fatal and reported (reproducer mode)")
	fs.StringVar(&c.recoverScope, "recover-scope", "kernel", "recovery scope: kernel (whole-image restore) or graft (roll back only the offender's domain, widening on cross-domain entanglement)")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "persist the checkpoint ring to this directory (gob manifests, exponential-age compaction)")
}

// build is the shared config builder every chaos-family subcommand
// funnels through.
func (c *chaosFlags) build() (vino.ChaosConfig, error) {
	classes, err := vino.ParseFaultClasses(c.faults)
	if err != nil {
		return vino.ChaosConfig{}, err
	}
	if c.faults == "" {
		// Let withDefaults pick the class set, so -extended widens it.
		classes = nil
	}
	cfg := vino.ChaosConfig{
		Seed:            c.seed,
		Classes:         classes,
		NCPU:            c.ncpu,
		Extended:        c.extended,
		VaryInstalls:    c.varyInstalls,
		Crash:           c.crash || c.norecover,
		CheckpointEvery: c.checkpoint,
		CheckpointRing:  c.checkpointRing,
		CheckpointDir:   c.checkpointDir,
		NoRecover:       c.norecover,
		RedTeam:         c.redteam,
	}
	switch c.recoverScope {
	case "", vino.RecoverScopeKernel:
		// Whole-kernel restore, the default; the zero value keeps
		// crash-free runs byte-identical with pre-scope builds.
	case vino.RecoverScopeGraft:
		cfg.RecoverScope = vino.RecoverScopeGraft
	default:
		return vino.ChaosConfig{}, fmt.Errorf("-recover-scope: unknown scope %q (want kernel or graft)", c.recoverScope)
	}
	if c.guard {
		pol := vino.DefaultGuardPolicy()
		if c.guardStreak > 0 {
			pol.QuarantineStreak = c.guardStreak
		}
		if c.guardBackoff > 0 {
			pol.Backoff = c.guardBackoff
		}
		if c.guardProbation > 0 {
			pol.ProbationCommits = c.guardProbation
		}
		cfg.Guard = &pol
	}
	if c.faultfile != "" {
		data, err := os.ReadFile(c.faultfile)
		if err != nil {
			return vino.ChaosConfig{}, err
		}
		plan, err := vino.DecodeFaultPlan(string(data))
		if err != nil {
			return vino.ChaosConfig{}, fmt.Errorf("%s: %w", c.faultfile, err)
		}
		cfg.Plan = plan
	}
	if c.quick {
		cfg.Iterations = 16
	}
	if c.iterations > 0 {
		cfg.Iterations = c.iterations
	}
	return cfg, nil
}

// execute runs the built config and prints the verdict.
func (c *chaosFlags) execute() error {
	cfg, err := c.build()
	if err != nil {
		return err
	}
	report, err := vino.RunChaos(cfg)
	if err != nil {
		return err
	}
	if c.writeplan != "" {
		if err := os.WriteFile(c.writeplan, []byte(report.Plan.Encode()), 0o644); err != nil {
			return err
		}
		fmt.Printf("chaos plan saved to %s\n", c.writeplan)
	}
	fmt.Printf("chaos plan (seed %d):\n%s", report.Plan.Seed, report.Plan)
	fmt.Print(report.Summary())
	fmt.Print(report.CounterSummary())
	if report.GuardHealth != nil {
		fmt.Print(report.GuardHealth.Table())
	}
	if showTrace {
		fmt.Print(report.TraceDump)
	}
	if !report.Survived() {
		if report.FatalPanic != "" {
			return fmt.Errorf("kernel panic %s was fatal (recovery disabled)", report.FatalPanic)
		}
		return errors.New("kernel did not survive the fault plan")
	}
	return nil
}

// cmdChaos is `vinosim chaos`: scheduled fault injection plus the
// survival audit, without the crash phase.
func cmdChaos(args []string) int {
	fs := flag.NewFlagSet("vinosim chaos", flag.ExitOnError)
	var c chaosFlags
	c.register(fs)
	defer parseFlags(fs, args)()
	return chaosExit(c.execute())
}

// cmdCrash is `vinosim crash`: chaos with the crash phase armed —
// injected kernel panics, checkpoint/restore recovery, and the
// checkpoint knobs exposed.
func cmdCrash(args []string) int {
	fs := flag.NewFlagSet("vinosim crash", flag.ExitOnError)
	var c chaosFlags
	c.register(fs)
	c.registerCrash(fs)
	defer parseFlags(fs, args)()
	c.crash = true
	return chaosExit(c.execute())
}

// cmdMinimize is `vinosim minimize`: delta-debug a failing chaos
// config's fault plan to a minimal reproducer faultfile. Recovery is
// disabled by default so the first contained panic is the failure.
func cmdMinimize(args []string) int {
	fs := flag.NewFlagSet("vinosim minimize", flag.ExitOnError)
	var c chaosFlags
	c.register(fs)
	c.registerCrash(fs)
	out := fs.String("out", "min.faultplan", "write the minimal reproducer faultfile here")
	withRecovery := fs.Bool("recover", false, "minimize with recovery enabled (needs a run that fails despite recovery)")
	defer parseFlags(fs, args)()
	c.crash = true
	if !*withRecovery {
		c.norecover = true
	}
	cfg, err := c.build()
	if err != nil {
		return chaosExit(err)
	}
	return chaosExit(runMinimize(cfg, *out))
}

// runMinimize delta-debugs the failing config's fault plan and writes
// the minimal reproducer as a faultfile.
func runMinimize(cfg vino.ChaosConfig, out string) error {
	res, err := vino.MinimizeChaos(cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, []byte(res.Plan.Encode()), 0o644); err != nil {
		return err
	}
	fmt.Printf("minimize: signature %q\n", res.Signature)
	fmt.Printf("minimize: %d rules -> %d (%d removed, %d replays)\n",
		len(res.Plan.Rules)+res.Removed, len(res.Plan.Rules), res.Removed, res.Runs)
	fmt.Printf("minimize: reproducer saved to %s; replay with 'vinosim crash -norecover -faultfile=%s' plus this run's flags\n", out, out)
	return nil
}

func chaosExit(err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
		return 1
	}
	return 0
}
