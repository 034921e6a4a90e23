package kernel

// rules_test exercises each of the paper's Table 1 "Rules for Grafting"
// end-to-end against the assembled kernel. Each test names the rule it
// certifies.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"vino/internal/graft"
	"vino/internal/lock"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
)

func registerEchoPoint(k *Kernel, name string) *graft.Point {
	return k.Grafts.RegisterPoint(&graft.Point{
		Name:    name,
		Kind:    graft.Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) { return -1, nil },
	})
}

// Rule 1: grafts must be preemptible. A spinning graft must not starve
// other threads: a bystander makes progress while the graft burns its
// watchdog budget.
func TestRule1GraftsPreemptible(t *testing.T) {
	k := newTestKernel()
	pt := registerEchoPoint(k, "obj.fn")
	pt.Watchdog = 200 * time.Millisecond
	bystanderTurns := 0
	graftDone := false
	k.SpawnProcess("grafter", 7, func(p *Process) {
		if _, err := p.BuildAndInstall("obj.fn", `
.name spinner
.func main
main:
    jmp main
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		_, _ = pt.Invoke(p.Thread)
		graftDone = true
	})
	k.SpawnProcess("bystander", 8, func(p *Process) {
		for !graftDone {
			bystanderTurns++
			p.Thread.Charge(time.Millisecond)
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bystanderTurns < 5 {
		t.Fatalf("bystander ran %d turns during graft spin; graft not preemptible", bystanderTurns)
	}
}

// Rule 2: grafts cannot hold kernel locks for excessive periods. The
// lock(resourceA); while(1) fragment from §2.2, end to end: the holder's
// transaction aborts, the lock frees, the contender proceeds.
func TestRule2NoLockHoarding(t *testing.T) {
	k := newTestKernel()
	resourceA := k.Locks.NewLock("resourceA", &lock.Class{Name: "res", Timeout: 30 * time.Millisecond})
	k.Grafts.RegisterCallable("test.lock_a", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		ctx.Txn.AcquireLock(resourceA, lock.Exclusive)
		return 0, nil
	})
	pt := registerEchoPoint(k, "obj.fn")
	pt.Watchdog = 10 * time.Second // let the lock time-out act first
	contenderGot := false
	var graftErr error
	k.SpawnProcess("hog", 7, func(p *Process) {
		if _, err := p.BuildAndInstall("obj.fn", `
.name lock-hog
.import test.lock_a
.func main
main:
    callk test.lock_a
spin:
    jmp spin
`, graft.InstallOptions{}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		_, graftErr = pt.Invoke(p.Thread)
	})
	k.SpawnProcess("contender", 8, func(p *Process) {
		p.Thread.Charge(2 * time.Millisecond)
		resourceA.Acquire(p.Thread, lock.Exclusive)
		contenderGot = true
		_ = resourceA.Release(p.Thread)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !contenderGot {
		t.Fatal("contender never got resourceA")
	}
	var te *lock.TimeoutError
	if !errors.As(graftErr, &te) {
		t.Fatalf("graft error = %v, want lock TimeoutError", graftErr)
	}
}

// Rule 2 (quantity-constrained): a graft cannot consume resources beyond
// its account.
func TestRule2QuantityLimits(t *testing.T) {
	k := newTestKernel()
	pt := registerEchoPoint(k, "obj.fn")
	k.SpawnProcess("greedy", 7, func(p *Process) {
		if _, err := p.BuildAndInstall("obj.fn", `
.name gobbler
.import vino.kheap_alloc
.func main
main:
    movi r1, 4096
loop:
    callk vino.kheap_alloc
    jmp loop
`, graft.InstallOptions{
			Transfer: resource.Amounts{resource.KernelHeap: 64 << 10},
		}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		_, err := pt.Invoke(p.Thread)
		var le *resource.LimitError
		if !errors.As(err, &le) {
			t.Errorf("err = %v, want LimitError", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Rule 3: grafts cannot access memory they were not granted. The
// SFI-rewritten graft's stray writes land in its own segment; simulated
// kernel memory stays intact.
func TestRule3MemoryIsolation(t *testing.T) {
	k := newTestKernel()
	pt := registerEchoPoint(k, "obj.fn")
	var g *graft.Installed
	k.SpawnProcess("scribbler", 7, func(p *Process) {
		var err error
		g, err = p.BuildAndInstall("obj.fn", `
.name scribbler
.func main
main:
    movi r1, 0        ; kernel address 0
    movi r2, 0x41
    movi r3, 2048
loop:
    stb [r1+0], r2
    addi r1, r1, 1
    addi r3, r3, -1
    jnz r3, loop
    movi r0, 0
    ret
`, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		kmem := g.VM().KernelMemory()
		for i := range kmem {
			kmem[i] = 0xEE
		}
		if _, err := pt.Invoke(p.Thread); err != nil {
			t.Errorf("sandboxed scribble aborted: %v", err)
		}
		for i, b := range kmem {
			if b != 0xEE {
				t.Errorf("kernel memory corrupted at %d", i)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Rules 4 and 7: grafts can call only graft-callable functions, and the
// callable list excludes functions returning unchecked private data.
// Link-time rejection is the enforcement point.
func TestRules4And7CallableList(t *testing.T) {
	k := newTestKernel()
	registerEchoPoint(k, "obj.fn")
	k.SpawnProcess("app", 7, func(p *Process) {
		_, err := p.BuildAndInstall("obj.fn", `
.name caller
.import fs.read_raw_blocks
.func main
main:
    callk fs.read_raw_blocks
    ret
`, graft.InstallOptions{})
		if !errors.Is(err, graft.ErrNotCallable) {
			t.Errorf("err = %v, want ErrNotCallable", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Rule 5: grafts cannot replace restricted kernel functions.
func TestRule5RestrictedFunctions(t *testing.T) {
	k := newTestKernel()
	k.Grafts.RegisterPoint(&graft.Point{
		Name:      "kernel.shutdown",
		Kind:      graft.Function,
		Privilege: graft.Restricted,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return 0, nil },
	})
	k.SpawnProcess("app", graft.Root, func(p *Process) {
		_, err := p.BuildAndInstall("kernel.shutdown", `
.name takeover
.func main
main:
    ret
`, graft.InstallOptions{})
		if !errors.Is(err, graft.ErrRestrictedPoint) {
			t.Errorf("err = %v, want ErrRestrictedPoint", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Rule 6: the kernel must not execute grafts not known to be safe —
// unsigned, tampered, or unrewritten images never load.
func TestRule6OnlyKnownSafeCode(t *testing.T) {
	k := newTestKernel()
	registerEchoPoint(k, "obj.fn")
	k.SpawnProcess("app", 7, func(p *Process) {
		// Unrewritten.
		raw, err := sfi.BuildUnsafe(".name raw\n.func main\nmain:\n ret")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Install("obj.fn", raw, graft.InstallOptions{}); !errors.Is(err, graft.ErrNotSafe) {
			t.Errorf("unsafe image: err = %v", err)
		}
		// Rewritten but self-signed by an attacker.
		forged, _, err := sfi.BuildSafe(".name forged\n.func main\nmain:\n ret", sfi.NewSigner([]byte("evil")))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Install("obj.fn", forged, graft.InstallOptions{}); !errors.Is(err, graft.ErrUnsigned) {
			t.Errorf("forged image: err = %v", err)
		}
		// Properly signed, then patched: flipping Safe off after signing.
		good, _, err := sfi.BuildSafe(".name good\n.func main\nmain:\n ret", k.Signer)
		if err != nil {
			t.Fatal(err)
		}
		good.Code = append(good.Code, sfi.Instr{Op: sfi.RET})
		if _, err := p.Install("obj.fn", good, graft.InstallOptions{}); !errors.Is(err, graft.ErrUnsigned) {
			t.Errorf("patched image: err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Rule 8: malicious grafts affect only applications that agreed to use
// them. A biased schedule-delegate graft penalises its own group; a
// non-participating process still gets CPU.
func TestRule8AntisocialConfined(t *testing.T) {
	k := newTestKernel()
	k.EnableScheduleDelegation()
	var victimTurns, outsiderTurns int
	stop := false
	// Two group members: one installs a graft that always picks the
	// other member (antisocial favouritism inside the group).
	favoured := k.SpawnProcess("favoured", 7, func(p *Process) {
		for !stop {
			p.Thread.Charge(time.Millisecond)
			p.Thread.Yield()
		}
	})
	k.SpawnProcess("self-denier", 7, func(p *Process) {
		pt := k.DelegatePoint(p.Thread)
		img, _, err := sfi.BuildSafe(`
.name favour-other
.func main
main:
    ld r0, [r10+0]
    ret
`, k.Signer)
		if err != nil {
			t.Errorf("build: %v", err)
			return
		}
		g, err := p.Install(pt.Name, img, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		heap := g.VM().Heap()
		id := int64(favoured.Thread.ID())
		for i := 0; i < 8; i++ {
			heap[i] = byte(uint64(id) >> (8 * i))
		}
		for !stop {
			victimTurns++
			p.Thread.Yield()
		}
	})
	k.SpawnProcess("outsider", 9, func(p *Process) {
		for i := 0; i < 50; i++ {
			outsiderTurns++
			p.Thread.Charge(time.Millisecond)
			p.Thread.Yield()
		}
		stop = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if outsiderTurns != 50 {
		t.Fatalf("outsider got %d turns; antisocial graft leaked outside its group", outsiderTurns)
	}
}

// Rule 9: the kernel makes progress with a faulty graft in its path. A
// never-returning graft on a critical path is watchdogged, removed, and
// the default policy continues.
func TestRule9ForwardProgress(t *testing.T) {
	k := newTestKernel()
	pt := registerEchoPoint(k, "pagedaemon.pick-victim")
	pt.Watchdog = 40 * time.Millisecond
	k.SpawnProcess("daemon-user", 7, func(p *Process) {
		g, err := p.BuildAndInstall("pagedaemon.pick-victim", `
.name throttler
.func main
main:
    jmp main
`, graft.InstallOptions{})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		// Critical loop: must complete all iterations despite the graft.
		for i := 0; i < 10; i++ {
			res, _ := pt.Invoke(p.Thread)
			if res != -1 {
				t.Errorf("iteration %d: res=%d, want default", i, res)
			}
		}
		if !g.Removed() {
			t.Error("throttling graft still installed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := pt.Stats().DefaultCalls; got != 10 {
		t.Fatalf("default calls = %d, want 10 (forward progress)", got)
	}
}

// Misbehavior class §2.1 (illegal data access via interface): even Root
// cannot sneak private data out — callables check ranges, the linker
// checks names. Summarised by the namespace listing restricted points.
func TestNamespaceListsPoints(t *testing.T) {
	k := newTestKernel()
	registerEchoPoint(k, "b.fn")
	registerEchoPoint(k, "a.fn")
	pts := k.Grafts.Points()
	if len(pts) != 2 || pts[0] != "a.fn" {
		t.Fatalf("points = %v", pts)
	}
	if !strings.Contains(strings.Join(k.Grafts.Callables(), ","), "vino.log") {
		t.Fatal("base callables missing")
	}
}
