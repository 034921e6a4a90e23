package main

// `vinosim fleet`: the multi-tenant fleet driver. Shards a synthetic
// open-loop workload across N kernel instances, arms crash faults on
// each, replaces instances that die from their durable checkpoint
// rings, and walks abusive tenants up the escalation ladder. Prints the
// per-instance and per-tenant accounting tables; exits non-zero if the
// fleet audit finds a violation. The report is byte-identical for a
// fixed (-seed, -instances, -tenants) at any -workers, which is what
// -report is for: write the summary to a file and cmp it across pool
// sizes in CI.

import (
	"flag"
	"fmt"
	"os"

	vino "vino"
)

func cmdFleet(args []string) int {
	fs := flag.NewFlagSet("vinosim fleet", flag.ExitOnError)
	seed := fs.Int64("seed", 7, "fleet master seed (with -instances/-tenants, fully determines the report)")
	instances := fs.Int("instances", 2, "kernel instance count")
	tenants := fs.Int("tenants", 2, "well-behaved tenant count")
	abusive := fs.Bool("abusive", true, "add one abusive tenant (heap gobbler with a starved socket grant)")
	rounds := fs.Int("rounds", 6, "traffic rounds per instance")
	arrivals := fs.Int("arrivals", 4, "per-tenant arrivals per round (abusive tenant doubles this)")
	workers := fs.Int("workers", 1, "worker-pool size (wall-clock only; the report is identical at any value)")
	crashFlag := fs.Bool("crash", true, "arm seed-derived kernel panics on every instance")
	dir := fs.String("dir", "", "durable checkpoint-ring root (empty = a temp dir removed on exit)")
	report := fs.String("report", "", "also write the summary to this file (for CI determinism cmp)")
	defer parseFlags(fs, args)()

	res, err := vino.RunFleet(vino.FleetConfig{
		Seed:        *seed,
		Instances:   *instances,
		Tenants:     *tenants,
		Abusive:     *abusive,
		Rounds:      *rounds,
		Arrivals:    *arrivals,
		Workers:     *workers,
		CrashFaults: *crashFlag,
		Dir:         *dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	sum := res.Summary()
	fmt.Print(sum)
	if *report != "" {
		if err := os.WriteFile(*report, []byte(sum), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		fmt.Printf("fleet: report written to %s\n", *report)
	}
	if !res.Clean() {
		fmt.Fprintf(os.Stderr, "fleet: audit failed with %d violation(s)\n", len(res.Violations))
		return 1
	}
	return 0
}
