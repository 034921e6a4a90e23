// bench_test.go holds the wall-clock benchmark per paper table. The
// virtual-time reproduction of each table lives in internal/harness (and
// is printed by cmd/vinobench); these testing.B benchmarks measure what
// the *real implementation* costs on the host, path by path, so the
// shape claims can be checked against genuine measured time as well as
// the simulator's deterministic clock.
package vino_test

import (
	"fmt"
	"testing"
	"time"

	vino "vino"
	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/harness"
	"vino/internal/kernel"
	"vino/internal/lock"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/vmm"
)

// benchKernel builds a kernel tuned for wall-clock benching: zero
// virtual costs so host time reflects implementation work, not the
// simulated cost model.
func benchKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{
		Timeslice:    time.Hour,
		ZeroTxnCosts: true,
		UnsafeGrafts: true,
	})
}

// runOnThread spawns a process that executes body(thread) and drives the
// scheduler to completion.
func runOnThread(b *testing.B, k *kernel.Kernel, body func(t *sched.Thread)) {
	b.Helper()
	k.SpawnProcess("bench", graft.Root, func(p *kernel.Process) { body(p.Thread) })
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func installBench(b *testing.B, k *kernel.Kernel, t *sched.Thread, point string, src string, safe bool) *graft.Installed {
	b.Helper()
	var img *sfi.Image
	var err error
	if safe {
		img, _, err = sfi.BuildSafe(src, k.Signer)
	} else {
		img, err = sfi.BuildUnsafe(src)
	}
	if err != nil {
		b.Fatal(err)
	}
	g, err := k.Grafts.Install(t, point, img, graft.InstallOptions{AllowUnsafe: !safe})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

const benchNullGraft = `
.name null
.func main
main:
    mov r0, r1
    ret
`

// BenchmarkTable3ReadAhead measures the compute-ra decision paths on the
// host clock.
func BenchmarkTable3ReadAhead(b *testing.B) {
	paths := []struct {
		name  string
		graft string
		safe  bool
	}{
		{"BasePath", "", false},
		{"VINOPath", "vino", false},
		{"NullPath", benchNullGraft, true},
		{"UnsafePath", benchRAGraft, false},
		{"SafePath", benchRAGraft, true},
		{"AbortPath", benchRAAbortGraft, true},
	}
	for _, pc := range paths {
		b.Run(pc.name, func(b *testing.B) {
			k := benchKernel()
			fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 4096)
			fsys.Create("db", 12<<20, graft.Root, false)
			runOnThread(b, k, func(t *sched.Thread) {
				of, err := fsys.Open(t, "db")
				if err != nil {
					b.Fatal(err)
				}
				point := of.RAPoint()
				point.KeepOnAbort = true
				var g *graft.Installed
				if pc.graft != "" && pc.graft != "vino" {
					g = installBench(b, k, t, point.Name, pc.graft, pc.safe)
					heap := g.VM().Heap()
					pokeBench(heap, 0, 40*vfs.BlockSize)
					pokeBench(heap, 8, vfs.BlockSize)
					pokeBench(heap, 16, int64(of.FD()))
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					of.ResetPrefetchQueue()
					if pc.graft == "" {
						of.ComputeRABase(t, 0, vfs.BlockSize)
					} else {
						_, _ = point.Invoke(t, 0, vfs.BlockSize)
					}
				}
				b.StopTimer()
			})
		})
	}
}

const benchRAGraft = `
.name compute-ra
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    ret
`

const benchRAAbortGraft = `
.name compute-ra-abort
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    movi r9, 0
    div r0, r0, r9
    ret
`

// BenchmarkTable4PageEviction measures the two-level eviction decision.
func BenchmarkTable4PageEviction(b *testing.B) {
	for _, grafted := range []bool{false, true} {
		name := "DefaultVictim"
		if grafted {
			name = "GraftOverrules"
		}
		b.Run(name, func(b *testing.B) {
			k := benchKernel()
			v := vmm.New(k, b.N+600)
			v.BaseEvictCost = 0
			v.FaultLatency = time.Microsecond
			runOnThread(b, k, func(t *sched.Thread) {
				vas := v.NewVAS(t)
				hot := []int64{0, 1, 2}
				if grafted {
					g := installBench(b, k, t, vas.EvictPoint().Name, benchEvictGraft, true)
					heap := g.VM().Heap()
					pokeBench(heap, 0, int64(len(hot)))
					for i, h := range hot {
						pokeBench(heap, 8+8*i, h)
					}
				}
				for i := int64(0); i < 512; i++ {
					vas.Touch(t, i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					h := hot[i%3]
					vas.Touch(t, h)
					v.MakeVictimNext(vas, h)
					b.StartTimer()
					v.EvictOne(t)
				}
				b.StopTimer()
			})
		})
	}
}

const benchEvictGraft = `
.name pick-eviction
.func main
main:
    mov r5, r1
    mov r14, r1
    call is_hot
    jz r0, keep
    movi r8, 0
    addi r6, r10, 1024
    ld r7, [r6+0]
    movi r9, -1
scan:
    cmplt r1, r8, r7
    jz r1, done
    movi r1, 3
    shl r1, r8, r1
    add r1, r1, r6
    ld r5, [r1+8]
    call is_hot
    jnz r0, next
    mov r9, r5
next:
    addi r8, r8, 1
    jmp scan
done:
    movi r1, -1
    cmpeq r1, r9, r1
    jnz r1, keep
    mov r0, r9
    ret
keep:
    mov r0, r14
    ret
is_hot:
    ld r2, [r10+0]
    movi r3, 0
ih_loop:
    cmplt r4, r3, r2
    jz r4, ih_no
    movi r0, 3
    shl r0, r3, r0
    add r0, r0, r10
    ld r0, [r0+8]
    cmpeq r0, r0, r5
    jnz r0, ih_yes
    addi r3, r3, 1
    jmp ih_loop
ih_no:
    movi r0, 0
    ret
ih_yes:
    movi r0, 1
    ret
`

// BenchmarkTable5Scheduling measures dispatch with and without the
// schedule-delegate graft in the dispatch path.
func BenchmarkTable5Scheduling(b *testing.B) {
	for _, mode := range []string{"BaseSwitch", "NullDelegate", "ScanDelegate"} {
		b.Run(mode, func(b *testing.B) {
			k := benchKernel()
			k.Sched.SwitchCost = 0
			k.EnableScheduleDelegation()
			ids := make([]int64, 64)
			for i := range ids {
				ids[i] = int64(1000 + i)
			}
			k.SetProcessList(ids)
			stop := false
			k.SpawnProcess("peer", graft.Root, func(p *kernel.Process) {
				for !stop {
					p.Thread.Yield()
				}
			})
			k.SpawnProcess("client", graft.Root, func(p *kernel.Process) {
				t := p.Thread
				defer func() { stop = true }()
				switch mode {
				case "NullDelegate":
					pt := k.DelegatePoint(t)
					installBench(b, k, t, pt.Name, benchNullGraft, true)
				case "ScanDelegate":
					pt := k.DelegatePoint(t)
					installBench(b, k, t, pt.Name, benchSchedGraft, true)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Yield()
				}
				b.StopTimer()
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

const benchSchedGraft = `
.name schedule-delegate
.import sched.proc_count
.import sched.proc_id
.func main
main:
    mov r6, r1
    callk sched.proc_count
    mov r7, r0
    movi r8, 0
loop:
    cmplt r2, r8, r7
    jz r2, done
    mov r1, r8
    callk sched.proc_id
    addi r2, r10, 128
    st [r2+0], r0      ; examine the entry (through memory, as the paper's collection class does)
    addi r8, r8, 1
    jmp loop
done:
    mov r0, r6
    ret
`

// BenchmarkTable6Encryption measures the stream graft: the host cost of
// interpreting the 8 KB XOR loop, unprotected vs SFI-rewritten.
func BenchmarkTable6Encryption(b *testing.B) {
	src := `
.name encrypt
.func main
main:
    mov r2, r10
    addi r3, r10, 8192
    movi r4, 1024
    movi r5, 0x5A5A5A5A
loop:
    ld r6, [r2+0]
    xor r6, r6, r5
    st [r3+0], r6
    addi r2, r2, 8
    addi r3, r3, 8
    addi r4, r4, -1
    jnz r4, loop
    movi r0, 0
    ret
`
	for _, safe := range []bool{false, true} {
		name := "UnsafeGraft"
		if safe {
			name = "SafeGraft"
		}
		b.Run(name, func(b *testing.B) {
			var img *sfi.Image
			var err error
			if safe {
				img, _, err = sfi.BuildSafe(src, sfi.NewSigner([]byte("bench")))
			} else {
				img, err = sfi.BuildUnsafe(src)
			}
			if err != nil {
				b.Fatal(err)
			}
			vm, err := sfi.NewVM(img, sfi.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(8192)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.Call("main"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7Abort measures transaction abort against commit, with
// and without undo work and locks.
func BenchmarkTable7Abort(b *testing.B) {
	cases := []struct {
		name  string
		locks int
		undos int
		abort bool
	}{
		{"NullCommit", 0, 0, false},
		{"NullAbort", 0, 0, true},
		{"FullAbort2Locks8Undos", 2, 8, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			k := benchKernel()
			cls := &lock.Class{Name: "bench", Timeout: time.Second}
			locks := make([]*lock.Lock, c.locks)
			for i := range locks {
				locks[i] = k.Locks.NewLock(fmt.Sprintf("l%d", i), cls)
			}
			x := 0
			runOnThread(b, k, func(t *sched.Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx := k.Txns.Begin(t)
					for _, l := range locks {
						tx.AcquireLock(l, lock.Exclusive)
					}
					for j := 0; j < c.undos; j++ {
						tx.PushUndo("x", func() { x++ })
					}
					if c.abort {
						tx.Abort()
					} else {
						tx.Commit()
					}
				}
				b.StopTimer()
			})
			_ = x
		})
	}
}

// BenchmarkLockManagerAblation is the Figures 4/5 comparison on the host
// clock: decisions inline vs behind the Policy interface.
func BenchmarkLockManagerAblation(b *testing.B) {
	for _, policy := range []bool{false, true} {
		name := "Fig4HardCoded"
		if policy {
			name = "Fig5Encapsulated"
		}
		b.Run(name, func(b *testing.B) {
			k := benchKernel()
			cls := &lock.Class{Name: "ablate", Timeout: time.Second}
			if policy {
				cls.Policy = lock.ReaderPriority{}
			}
			l := k.Locks.NewLock("obj", cls)
			runOnThread(b, k, func(t *sched.Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Acquire(t, lock.Exclusive)
					_ = l.Release(t)
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkSFIDensitySweep measures SFI overhead as a function of the
// graft's memory-access density (the §4.4 claim) on the host clock.
func BenchmarkSFIDensitySweep(b *testing.B) {
	for mem := 0; mem <= 8; mem += 4 {
		src := ".name density\n.func main\nmain:\n    movi r4, 64\nloop:\n"
		for i := 0; i < 4; i++ {
			src += "    add r5, r4, r4\n"
		}
		for i := 0; i < mem; i++ {
			src += fmt.Sprintf("    addi r6, r10, %d\n    st [r6+0], r5\n", 64+8*i)
		}
		src += "    addi r4, r4, -1\n    jnz r4, loop\n    ret\n"
		for _, safe := range []bool{false, true} {
			name := fmt.Sprintf("mem%d/unsafe", mem)
			if safe {
				name = fmt.Sprintf("mem%d/safe", mem)
			}
			b.Run(name, func(b *testing.B) {
				var img *sfi.Image
				var err error
				if safe {
					img, _, err = sfi.BuildSafe(src, nil)
				} else {
					img, err = sfi.BuildUnsafe(src)
				}
				if err != nil {
					b.Fatal(err)
				}
				vm, err := sfi.NewVM(img, sfi.Config{})
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

// BenchmarkVirtualTables regenerates the deterministic virtual-time
// tables once per run so `go test -bench` output carries the paper
// comparison (the real workhorse is cmd/vinobench).
func BenchmarkVirtualTables(b *testing.B) {
	builders := []struct {
		name string
		fn   func() (*harness.Table, error)
	}{
		{"Table3", harness.ReadAheadTable},
		{"Table4", harness.PageEvictionTable},
		{"Table5", harness.SchedulingTable},
		{"Table6", harness.EncryptionTable},
	}
	for _, bd := range builders {
		b.Run(bd.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := bd.fn()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + tbl.String())
				}
			}
		})
	}
	b.Run("Table7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tbl, err := harness.BuildAbortTable()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Log("\n" + tbl.String())
			}
		}
	})
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

// BenchmarkCheckpoint measures one checkpoint capture on the large-fs
// crash workload — 4096 blocks of file state, a given fraction of it
// re-dirtied before each capture — under full-copy and incremental
// modes. The full-copy rows are the seed protocol's cost; incremental
// capture at 10% dirty must come in at least ~5x cheaper in both time
// and bytes/op (the captured block payload, reported as a metric).
func BenchmarkCheckpoint(b *testing.B) {
	const nblocks = 4096
	for _, mode := range []struct {
		name     string
		fullCopy bool
	}{
		{"full", true},
		{"incremental", false},
	} {
		for _, pct := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s/dirty=%d%%", mode.name, pct), func(b *testing.B) {
				k := kernel.New(kernel.Config{
					Timeslice:          time.Hour,
					ZeroTxnCosts:       true,
					CheckpointEvery:    time.Hour, // explicit captures only
					CheckpointFullCopy: mode.fullCopy,
				})
				fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), nblocks+64)
				fsys.Create("bench-db", nblocks*vfs.BlockSize, graft.Root, false)
				stride := 1
				if pct < 100 {
					stride = 100 / pct
				}
				writeBlocks := func(stride, phase int) {
					runOnThread(b, k, func(t *sched.Thread) {
						of, err := fsys.Open(t, "bench-db")
						if err != nil {
							b.Error(err)
							return
						}
						defer of.Close()
						buf := make([]byte, vfs.BlockSize)
						for blk := phase % stride; blk < nblocks; blk += stride {
							if _, err := of.WriteAt(t, buf, int64(blk)*vfs.BlockSize); err != nil {
								b.Error(err)
								return
							}
						}
					})
				}
				writeBlocks(1, 0) // the state: every block written once
				k.Checkpoint()    // base image
				writeBlocks(stride, 0)
				// The payload one capture carries in this mode, measured
				// on the real capture path.
				var payload int64
				if mode.fullCopy {
					payload = vfs.SnapshotBytes(fsys.CrashSnapshot())
				} else {
					payload = vfs.SnapshotBytes(fsys.CrashDelta(k.Crash.Gen() - 1))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 {
						b.StopTimer()
						writeBlocks(stride, i) // fresh dirt, phase-shifted
						b.StartTimer()
					}
					k.Checkpoint()
				}
				b.StopTimer()
				b.ReportMetric(float64(payload), "bytes/op")
			})
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

func pokeBench(heap []byte, off int, v int64) {
	for i := 0; i < 8; i++ {
		heap[off+i] = byte(uint64(v) >> (8 * i))
	}
}
