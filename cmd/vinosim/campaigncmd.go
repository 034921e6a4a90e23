package main

// `vinosim campaign`: the coverage-guided chaos fuzzer. Shards seeds
// across a bounded worker pool of isolated kernels, fingerprints every
// run, evolves fault plans toward novel signatures, and distills each
// novel signature into a minimized reproducer. Deterministic for a
// fixed (-seed, -shards) at any -workers; exits non-zero if any run
// fails the survival audit or fewer than -min-novel signatures turn up.

import (
	"flag"
	"fmt"
	"os"

	vino "vino"
)

func cmdCampaign(args []string) int {
	fs := flag.NewFlagSet("vinosim campaign", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign master seed (with -shards, fully determines the outcome)")
	runs := fs.Int("runs", 256, "total chaos-run budget")
	shards := fs.Int("shards", 8, "population width: plans per generation (a determinism parameter)")
	workers := fs.Int("workers", 0, "worker-pool size (wall-clock only; 0 = GOMAXPROCS capped at -shards)")
	iterations := fs.Int("iterations", 16, "workload iterations per run")
	ncpu := fs.Int("ncpu", 1, "simulated CPU count per kernel instance")
	extended := fs.Bool("extended", true, "widen each run's fault surface (netio class, pager phase)")
	crashFlag := fs.Bool("crash", true, "arm each run's crash phase (most signature diversity lives here)")
	maxCorpus := fs.Int("maxcorpus", 16, "cap on minimized reproducers to distill (-1 disables minimization)")
	minNovel := fs.Int("min-novel", 1, "fail unless at least this many distinct signatures are discovered")
	corpusDir := fs.String("corpus", "", "write minimized reproducers to this directory (one faultfile per signature)")
	coverageOut := fs.String("coverage", "", "write the byte-stable coverage map to this file ('-' for stdout)")
	defer parseFlags(fs, args)()

	cfg := vino.CampaignConfig{
		Seed:       *seed,
		Runs:       *runs,
		Shards:     *shards,
		Workers:    *workers,
		Iterations: *iterations,
		NCPU:       *ncpu,
		Extended:   *extended,
		Crash:      *crashFlag,
		MaxCorpus:  *maxCorpus,
	}
	rep, err := vino.RunCampaign(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	fmt.Print(rep.Summary())
	if *coverageOut == "-" {
		fmt.Print(rep.CoverageDump())
	} else if *coverageOut != "" {
		if err := os.WriteFile(*coverageOut, []byte(rep.CoverageDump()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			return 1
		}
		fmt.Printf("campaign: coverage map written to %s\n", *coverageOut)
	}
	if *corpusDir != "" {
		if err := rep.WriteCorpus(*corpusDir); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			return 1
		}
		fmt.Printf("campaign: %d reproducers written to %s\n", len(rep.Corpus), *corpusDir)
	}
	if rep.DirtyRuns > 0 {
		fmt.Fprintf(os.Stderr, "campaign: FAIL: %d runs failed the survival audit\n", rep.DirtyRuns)
		return 1
	}
	if len(rep.Novel) < *minNovel {
		fmt.Fprintf(os.Stderr, "campaign: FAIL: %d distinct signatures, want >= %d\n", len(rep.Novel), *minNovel)
		return 1
	}
	return 0
}
