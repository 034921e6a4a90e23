// bench_test.go holds the host-clock benchmarks of the paper's
// experiments. Each experiment has one fixture in internal/harness: the
// virtual-time tables printed by cmd/vinobench time it on the
// simulator's deterministic clock, and these testing.B benchmarks time
// the same fixture, path by path, on the host clock — so the shape
// claims can be checked against genuine measured time as well.
package vino_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	vino "vino"
	"vino/internal/harness"
	"vino/internal/kernel"
	"vino/internal/lock"
)

// benchFixture times b.N fixture ops on the host clock and reports
// their mean as ns/op. Setup, and booting a fresh fixture every iters
// ops (a fixture supports only that many), stay outside the measured
// region. The benchmark timer still runs across them, so b.N scales to
// what a run really costs; stopping it around every op would cost a
// stop-the-world (runtime.ReadMemStats) per op and let a 200 ns op ask
// for millions of fixture boots.
func benchFixture(b *testing.B, iters int, run func(harness.Driver) error) {
	var measured time.Duration
	for done := 0; done < b.N; done += iters {
		n := min(iters, b.N-done)
		err := run(func(f *harness.Fixture) {
			for i := 0; i < n; i++ {
				if f.Setup != nil {
					f.Setup(i)
				}
				t0 := time.Now()
				_ = f.Op() // the Abort path's op fails by design; its cost counts
				measured += time.Since(t0)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(measured.Nanoseconds())/float64(b.N), "ns/op")
}

// benchPaths runs one sub-benchmark per Table 2 path of x.
func benchPaths(b *testing.B, x *harness.Experiment) {
	for _, path := range harness.PathOrder {
		b.Run(strings.ReplaceAll(path, " path", "Path"), func(b *testing.B) {
			benchFixture(b, x.Iters, func(d harness.Driver) error { return x.Run(path, d) })
		})
	}
}

// BenchmarkTable3ReadAhead times one compute-ra decision per op.
func BenchmarkTable3ReadAhead(b *testing.B) { benchPaths(b, harness.ReadAhead) }

// BenchmarkTable4PageEviction times one eviction decision per op.
func BenchmarkTable4PageEviction(b *testing.B) { benchPaths(b, harness.PageEviction) }

// BenchmarkTable5Scheduling times one two-switch round trip per op.
func BenchmarkTable5Scheduling(b *testing.B) { benchPaths(b, harness.Scheduling) }

// BenchmarkTable6Encryption times one 8 KB buffer per op.
func BenchmarkTable6Encryption(b *testing.B) { benchPaths(b, harness.Encryption) }

// BenchmarkTable7Abort times each graft's Table 7 invocation: its
// Abort-path fixture with the null graft that traps at once, and with
// the full graft trapping after its work.
func BenchmarkTable7Abort(b *testing.B) {
	for _, x := range harness.Experiments {
		for _, full := range []bool{false, true} {
			name := "NullAbort"
			if full {
				name = "FullAbort"
			}
			b.Run(strings.NewReplacer(" ", "", "-", "").Replace(x.Name)+"/"+name, func(b *testing.B) {
				benchFixture(b, x.Iters, func(d harness.Driver) error { return x.RunAbort(full, d) })
			})
		}
	}
}

// BenchmarkLockManagerAblation is the Figures 4/5 comparison on the host
// clock: decisions inline vs behind the Policy interface.
func BenchmarkLockManagerAblation(b *testing.B) {
	for _, c := range []struct {
		name   string
		policy lock.Policy
	}{{"Fig4HardCoded", nil}, {"Fig5Encapsulated", lock.ReaderPriority{}}} {
		b.Run(c.name, func(b *testing.B) {
			benchFixture(b, b.N, func(d harness.Driver) error { return harness.RunLockAblation(c.policy, d) })
		})
	}
}

// BenchmarkSFIDensitySweep measures SFI overhead as a function of the
// graft's memory-access density (the §4.4 claim) on the host clock.
func BenchmarkSFIDensitySweep(b *testing.B) {
	for _, mem := range harness.DensityMemOps {
		for _, safe := range []bool{false, true} {
			name := fmt.Sprintf("mem%d/unsafe", mem)
			if safe {
				name = fmt.Sprintf("mem%d/safe", mem)
			}
			b.Run(name, func(b *testing.B) {
				vm, err := harness.DensityVM(mem, safe)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := vm.Call("main"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSMPThroughput runs the fixed multi-CPU batch workload at
// each CPU count, light (independent compute) and heavy (one shared
// exclusive lock held across preemption). The reported metric is
// simulated aggregate throughput: light should scale near-linearly with
// CPUs, heavy should stay nearly flat — the cost of contention the SMP
// scheduler makes visible.
func BenchmarkSMPThroughput(b *testing.B) {
	for _, ncpu := range []int{1, 2, 4} {
		for _, variant := range []struct {
			name      string
			contended bool
		}{{"light", false}, {"heavy", true}} {
			b.Run(fmt.Sprintf("%s/ncpu=%d", variant.name, ncpu), func(b *testing.B) {
				var last *harness.SMPResult
				for i := 0; i < b.N; i++ {
					r, err := harness.SMPThroughput(ncpu, 32, variant.contended)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.Throughput, "simops/vsec")
				b.ReportMetric(float64(last.LockWaits), "lockwaits")
			})
		}
	}
}

// BenchmarkCheckpoint measures one checkpoint capture on the
// checkpoint-cost sweep's fixture — 4096 blocks of file state, a given
// fraction of it re-dirtied before each capture — under full-copy and
// incremental modes. The full-copy rows are the seed protocol's cost;
// incremental capture at 10% dirty must come in at least ~5x cheaper in
// both time and bytes/op (the captured block payload, reported as a
// metric).
func BenchmarkCheckpoint(b *testing.B) {
	for _, mode := range []struct {
		name     string
		fullCopy bool
	}{
		{"full", true},
		{"incremental", false},
	} {
		for _, pct := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s/dirty=%d%%", mode.name, pct), func(b *testing.B) {
				e, err := harness.NewCheckpointCostEnv(4096, pct, mode.fullCopy)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 {
						b.StopTimer()
						if err := e.Dirty(i); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					e.Capture()
				}
				b.StopTimer()
				b.ReportMetric(float64(e.Payload), "bytes/op")
			})
		}
	}
}

// BenchmarkChaosRun times one chaos run of the survival path — crash
// phase, extended faults and the red-team corpus, the configuration of
// the repository benchmark's chaos-crash workload — and reports its
// allocation (B/op, allocs/op). Every op uses the same seed, so the
// work per op is identical.
func BenchmarkChaosRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := vino.RunChaos(vino.ChaosConfig{Seed: 101, Crash: true, Extended: true, RedTeam: true})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Survived() {
			b.Fatalf("chaos run did not survive: %q", rep.Violations)
		}
	}
}

// TestPublicFacade smoke-tests the root package aliases.
func TestPublicFacade(t *testing.T) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true})
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 64)
	fsys.Create("f", vino.BlockSize, 100, true)
	ran := false
	k.SpawnProcess("app", 100, func(p *vino.Process) {
		of, err := fsys.Open(p.Thread, "f")
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		buf := make([]byte, 16)
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("facade workload did not run")
	}
}
