package graft

import (
	"errors"
	"testing"
	"time"

	"vino/internal/lock"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/simclock"
	"vino/internal/txn"
)

type env struct {
	s      *sched.Scheduler
	locks  *lock.Manager
	txns   *txn.Manager
	reg    *Registry
	signer *sfi.Signer
}

func newEnv() *env {
	s := sched.New(simclock.New(0))
	s.SwitchCost = 0
	locks := lock.NewManager(s.Clock())
	txns := txn.NewManager()
	txns.Costs = txn.ZeroCosts()
	locks.HolderInTxn = txns.InTxn
	signer := sfi.NewSigner([]byte("test-key"))
	reg := NewRegistry(s.Clock(), txns, signer)
	return &env{s: s, locks: locks, txns: txns, reg: reg, signer: signer}
}

func (e *env) buildSafe(t testing.TB, src string) *sfi.Image {
	t.Helper()
	img, _, err := sfi.BuildSafe(src, e.signer)
	if err != nil {
		t.Fatalf("BuildSafe: %v", err)
	}
	return img
}

// run spawns a process-like thread with identity and account, runs the
// scheduler, and fails on error.
func (e *env) run(t *testing.T, uid UID, body func(th *sched.Thread, acct *resource.Account)) {
	t.Helper()
	acct := resource.NewAccount("proc")
	acct.SetLimits(resource.Amounts{resource.KernelHeap: 1 << 20, resource.Memory: 1 << 20})
	e.s.Spawn("proc", func(th *sched.Thread) {
		SetThreadIdentity(th, uid, acct)
		body(th, acct)
	})
	if err := e.s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func newFnPoint(name string) *Point {
	return &Point{
		Name: name,
		Kind: Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return -1, nil // distinguishable default
		},
	}
}

const doubleSrc = `
.name double
.func main
main:
    add r0, r1, r1
    ret
`

func TestInstallAndInvokeFunctionGraft(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(newFnPoint("file/1.compute-ra"))
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
		if res, _ := p.Invoke(th, 21); res != -1 {
			t.Errorf("ungrafted invoke = %d, want default -1", res)
		}
		g, err := e.reg.Install(th, "file/1.compute-ra", img, InstallOptions{})
		if err != nil {
			t.Fatalf("Install: %v", err)
		}
		if g.Owner != 100 {
			t.Errorf("owner = %d", g.Owner)
		}
		res, err := p.Invoke(th, 21)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if res != 42 {
			t.Errorf("grafted invoke = %d, want 42", res)
		}
	})
	st := p.Stats()
	if st.GraftedCalls != 1 || st.DefaultCalls != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoaderRejectsUnsafeImage(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	img, err := sfi.BuildUnsafe(doubleSrc)
	if err != nil {
		t.Fatal(err)
	}
	e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); !errors.Is(err, ErrNotSafe) {
			t.Errorf("Install = %v, want ErrNotSafe", err)
		}
	})
}

func TestLoaderRejectsBadSignature(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	// Signed by an attacker's key.
	img, _, err := sfi.BuildSafe(doubleSrc, sfi.NewSigner([]byte("wrong key")))
	if err != nil {
		t.Fatal(err)
	}
	e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); !errors.Is(err, ErrUnsigned) {
			t.Errorf("Install = %v, want ErrUnsigned", err)
		}
	})
	if e.reg.Stats().SignatureFails != 1 {
		t.Fatalf("stats = %+v", e.reg.Stats())
	}
}

func TestLoaderRejectsTamperedImage(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, doubleSrc)
	img.Code[0].Imm = 7 // tamper post-signing
	e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); !errors.Is(err, ErrUnsigned) {
			t.Errorf("Install = %v, want ErrUnsigned", err)
		}
	})
}

func TestLinkerRejectsUncallableSymbol(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, `
.name sneaky
.import kernel.shutdown
.func main
main:
    callk kernel.shutdown
    ret
`)
	e.run(t, 100, func(th *sched.Thread, acct *resource.Account) {
		opts := InstallOptions{Transfer: resource.Amounts{resource.KernelHeap: 4096}}
		if _, err := e.reg.Install(th, "p", img, opts); !errors.Is(err, ErrNotCallable) {
			t.Errorf("Install = %v, want ErrNotCallable", err)
		}
		if got := acct.Limit(resource.KernelHeap); got != 1<<20 {
			t.Errorf("installer kernel-heap limit = %d after link failure, want %d", got, 1<<20)
		}
	})
	if e.reg.Stats().LinkFails != 1 {
		t.Fatal("link failure not counted")
	}
}

func TestRestrictedPointNeverGraftable(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(&Point{
		Name:      "security.check-access",
		Kind:      Function,
		Privilege: Restricted,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return 0, nil },
	})
	img := e.buildSafe(t, doubleSrc)
	e.run(t, Root, func(th *sched.Thread, _ *resource.Account) {
		// Even Root cannot graft a restricted point.
		if _, err := e.reg.Install(th, "security.check-access", img, InstallOptions{}); !errors.Is(err, ErrRestrictedPoint) {
			t.Errorf("Install = %v, want ErrRestrictedPoint", err)
		}
	})
}

func TestGlobalPointRequiresRoot(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(&Point{
		Name:      "vm.global-eviction",
		Kind:      Function,
		Privilege: Global,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return 0, nil },
	})
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 100, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "vm.global-eviction", img, InstallOptions{}); !errors.Is(err, ErrPrivilege) {
			t.Errorf("Install = %v, want ErrPrivilege", err)
		}
	})
	if e.reg.Stats().PrivilegeFails != 1 {
		t.Fatal("privilege failure not counted")
	}
	e2 := newEnv()
	p := e2.reg.RegisterPoint(&Point{
		Name:      "vm.global-eviction",
		Kind:      Function,
		Privilege: Global,
		Default:   func(t *sched.Thread, args []int64) (int64, error) { return 0, nil },
	})
	img2 := e2.buildSafe(t, doubleSrc)
	e2.run(t, Root, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e2.reg.Install(th, "vm.global-eviction", img2, InstallOptions{}); err != nil {
			t.Errorf("root install: %v", err)
		}
	})
	if !p.Grafted() {
		t.Fatal("root's graft not installed")
	}
}

func TestFunctionPointOccupied(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); !errors.Is(err, ErrOccupied) {
			t.Errorf("second install = %v, want ErrOccupied", err)
		}
	})
}

func TestUnknownPointAndEntry(t *testing.T) {
	e := newEnv()
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "ghost", img, InstallOptions{}); !errors.Is(err, ErrUnknownPoint) {
			t.Errorf("Install = %v, want ErrUnknownPoint", err)
		}
	})
	e2 := newEnv()
	e2.reg.RegisterPoint(newFnPoint("p"))
	img2 := e2.buildSafe(t, doubleSrc)
	e2.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e2.reg.Install(th, "p", img2, InstallOptions{Entry: "missing"}); err == nil {
			t.Error("missing entry accepted")
		}
	})
}

// TestAbortRemovesGraftAndFallsBack is rule 9 end-to-end: a graft that
// fails is undone, removed, and the default answer produced.
func TestAbortRemovesGraftAndFallsBack(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(newFnPoint("p"))
	// The graft divides by zero: a trap, like an errant pointer.
	img := e.buildSafe(t, `
.name crasher
.func main
main:
    movi r2, 0
    div r0, r1, r2
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		g, err := e.reg.Install(th, "p", img, InstallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, ierr := p.Invoke(th, 5)
		if res != -1 {
			t.Errorf("fallback result = %d, want default -1", res)
		}
		if ierr == nil {
			t.Error("abort reason not reported")
		}
		if !g.Removed() {
			t.Error("graft not removed after abort")
		}
		if p.Grafted() {
			t.Error("point still grafted")
		}
		// Next invocation goes straight to the default.
		if res, err := p.Invoke(th, 5); err != nil || res != -1 {
			t.Errorf("post-removal invoke = %d, %v", res, err)
		}
	})
	st := p.Stats()
	if st.Aborts != 1 || st.Removals != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWatchdogAbortsNonReturningGraft is §2.5: the covert
// denial-of-service where a graft simply never returns.
func TestWatchdogAbortsNonReturningGraft(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(newFnPoint("pagedaemon.pick"))
	p.Watchdog = 50 * time.Millisecond
	img := e.buildSafe(t, `
.name loop-forever
.func main
main:
    jmp main
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "pagedaemon.pick", img, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		start := e.s.Clock().Now()
		res, ierr := p.Invoke(th, 0)
		if res != -1 {
			t.Errorf("result = %d, want default after watchdog abort", res)
		}
		if !errors.Is(ierr, ErrWatchdog) {
			t.Errorf("err = %v, want ErrWatchdog", ierr)
		}
		elapsed := e.s.Clock().Now() - start
		if elapsed < 50*time.Millisecond || elapsed > 500*time.Millisecond {
			t.Errorf("watchdog latency = %v", elapsed)
		}
	})
	if e.reg.Stats().WatchdogFires != 1 {
		t.Fatal("watchdog fire not counted")
	}
}

// TestResourceLimitAbortsGreedyGraft: a graft with zero limits cannot
// allocate; one with transferred limits can, up to the transfer.
func TestResourceLimitAbortsGreedyGraft(t *testing.T) {
	e := newEnv()
	// alloc callable charging the graft's account.
	e.reg.RegisterCallable("test.alloc", func(ctx *Ctx, args [5]int64) (int64, error) {
		n := args[0]
		acct := ctx.Account()
		if err := acct.Charge(resource.KernelHeap, n); err != nil {
			return 0, err
		}
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("alloc", func() { acct.Release(resource.KernelHeap, n) })
		}
		return 0, nil
	})
	p := e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, `
.name hog
.import test.alloc
.func main
main:
    movi r1, 4096
    callk test.alloc
    movi r0, 1
    ret
`)
	e.run(t, 1, func(th *sched.Thread, acct *resource.Account) {
		g, err := e.reg.Install(th, "p", img, InstallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Zero limits: the allocation is denied, the graft aborts.
		res, ierr := p.Invoke(th, 0)
		if res != -1 || ierr == nil {
			t.Fatalf("zero-limit graft: res=%d err=%v", res, ierr)
		}
		var le *resource.LimitError
		if !errors.As(ierr, &le) {
			t.Fatalf("abort reason = %v, want LimitError", ierr)
		}
		if !g.Removed() {
			t.Fatal("greedy graft not removed")
		}

		// Re-install with a transfer: the same allocation succeeds, and
		// the usage lands on the graft's account, not the process's.
		g2, err := e.reg.Install(th, "p", img, InstallOptions{
			Transfer: resource.Amounts{resource.KernelHeap: 8192},
		})
		if err != nil {
			t.Fatal(err)
		}
		procUsedBefore := acct.Used(resource.KernelHeap)
		if res, err := p.Invoke(th, 0); err != nil || res != 1 {
			t.Fatalf("funded graft: res=%d err=%v", res, err)
		}
		if g2.Account.Used(resource.KernelHeap) != 4096 {
			t.Errorf("graft account used = %d", g2.Account.Used(resource.KernelHeap))
		}
		if acct.Used(resource.KernelHeap) != procUsedBefore {
			t.Error("charge leaked onto process account")
		}
	})
}

// TestBillInstaller: allocations land on the installer's account.
func TestBillInstaller(t *testing.T) {
	e := newEnv()
	e.reg.RegisterCallable("test.alloc", func(ctx *Ctx, args [5]int64) (int64, error) {
		return 0, ctx.Account().Charge(resource.KernelHeap, args[0])
	})
	p := e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, `
.name billed
.import test.alloc
.func main
main:
    movi r1, 100
    callk test.alloc
    movi r0, 1
    ret
`)
	e.run(t, 1, func(th *sched.Thread, acct *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{BillInstaller: true}); err != nil {
			t.Fatal(err)
		}
		if res, err := p.Invoke(th, 0); err != nil || res != 1 {
			t.Fatalf("res=%d err=%v", res, err)
		}
		if acct.Used(resource.KernelHeap) != 100 {
			t.Errorf("installer account used = %d, want 100", acct.Used(resource.KernelHeap))
		}
	})
}

// TestAbortUndoesKernelStateChanges: an accessor's mutation made by a
// graft is rolled back when a later step aborts the transaction.
func TestAbortUndoesKernelStateChanges(t *testing.T) {
	e := newEnv()
	kernelState := 0
	e.reg.RegisterCallable("test.set_state", func(ctx *Ctx, args [5]int64) (int64, error) {
		old := kernelState
		kernelState = int(args[0])
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("set_state", func() { kernelState = old })
		}
		return 0, nil
	})
	p := e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, `
.name mutate-then-trap
.import test.set_state
.func main
main:
    movi r1, 99
    callk test.set_state
    movi r2, 0
    div r0, r1, r2   ; trap after mutating
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		_, _ = p.Invoke(th, 0)
	})
	if kernelState != 0 {
		t.Fatalf("kernel state = %d after abort, want 0 (undone)", kernelState)
	}
}

// TestNestedGraftAbortSparesOuter: a graft invoking a second graft point
// whose graft aborts continues with the inner default (§3.1 nested
// transactions).
func TestNestedGraftAbortSparesOuter(t *testing.T) {
	e := newEnv()
	inner := e.reg.RegisterPoint(newFnPoint("inner"))
	outer := e.reg.RegisterPoint(newFnPoint("outer"))
	// Kernel callable that invokes the inner graft point.
	e.reg.RegisterCallable("test.call_inner", func(ctx *Ctx, args [5]int64) (int64, error) {
		res, _ := inner.Invoke(ctx.Thread, args[0])
		return res, nil
	})
	badImg := e.buildSafe(t, `
.name bad-inner
.func main
main:
    movi r2, 0
    div r0, r1, r2
    ret
`)
	outerImg := e.buildSafe(t, `
.name outer
.import test.call_inner
.func main
main:
    callk test.call_inner
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "inner", badImg, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.reg.Install(th, "outer", outerImg, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := outer.Invoke(th, 7)
		if err != nil {
			t.Fatalf("outer graft should survive inner abort: %v", err)
		}
		if res != -1 {
			t.Errorf("res = %d, want inner default -1 propagated", res)
		}
	})
	if outer.Stats().Commits != 1 {
		t.Fatalf("outer stats = %+v", outer.Stats())
	}
	if inner.Stats().Aborts != 1 || !inner.Grafted() == false {
		t.Fatalf("inner stats = %+v grafted=%v", inner.Stats(), inner.Grafted())
	}
}

func TestValidatorRejectsBadResult(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(&Point{
		Name: "p",
		Kind: Function,
		Default: func(t *sched.Thread, args []int64) (int64, error) {
			return -1, nil
		},
		Validate: func(t *sched.Thread, args []int64, res int64) (int64, error) {
			if res < 0 || res > 100 {
				return 0, errors.New("out of range")
			}
			return res, nil
		},
	})
	img := e.buildSafe(t, `
.name liar
.func main
main:
    movi r0, 5000
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		res, err := p.Invoke(th, 0)
		if res != -1 || !errors.Is(err, ErrBadResult) {
			t.Fatalf("res=%d err=%v, want default + ErrBadResult", res, err)
		}
	})
	if p.Stats().ValidationFail != 1 {
		t.Fatal("validation failure not counted")
	}
}

func TestEventGraftHandlersRunInOrder(t *testing.T) {
	e := newEnv()
	var order []int64
	e.reg.RegisterCallable("test.mark", func(ctx *Ctx, args [5]int64) (int64, error) {
		order = append(order, args[0])
		return 0, nil
	})
	p := e.reg.RegisterPoint(&Point{Name: "tcp/80.connection", Kind: Event})
	mk := func(id int64) *sfi.Image {
		return e.buildSafe(t, `
.name handler
.import test.mark
.func main
main:
    mov r2, r1   ; keep event arg
    movi r1, `+itoa(id)+`
    callk test.mark
    ret
`)
	}
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "tcp/80.connection", mk(2), InstallOptions{Order: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.reg.Install(th, "tcp/80.connection", mk(1), InstallOptions{Order: 1}); err != nil {
			t.Fatal(err)
		}
		if n := p.Trigger(e.s, 42); n != 2 {
			t.Fatalf("Trigger spawned %d workers", n)
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("handler order = %v, want [1 2]", order)
	}
}

func TestEventHandlerAbortRemovesOnlyThatHandler(t *testing.T) {
	e := newEnv()
	ran := 0
	e.reg.RegisterCallable("test.mark", func(ctx *Ctx, args [5]int64) (int64, error) {
		ran++
		return 0, nil
	})
	p := e.reg.RegisterPoint(&Point{Name: "ev", Kind: Event})
	good := e.buildSafe(t, `
.name good
.import test.mark
.func main
main:
    callk test.mark
    ret
`)
	bad := e.buildSafe(t, `
.name bad
.func main
main:
    movi r2, 0
    div r0, r2, r2
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		gGood, err := e.reg.Install(th, "ev", good, InstallOptions{Order: 1})
		if err != nil {
			t.Fatal(err)
		}
		gBad, err := e.reg.Install(th, "ev", bad, InstallOptions{Order: 2})
		if err != nil {
			t.Fatal(err)
		}
		p.Trigger(e.s, 0)
		// Let workers run.
		for i := 0; i < 10; i++ {
			th.Yield()
		}
		if gBad.Removed() == false {
			t.Error("bad handler not removed")
		}
		if gGood.Removed() {
			t.Error("good handler removed")
		}
	})
	if ran != 1 {
		t.Fatalf("good handler ran %d times", ran)
	}
	if len(p.Handlers()) != 1 {
		t.Fatalf("handlers left = %d", len(p.Handlers()))
	}
}

func TestTriggerOnFunctionPointPanics(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(newFnPoint("p"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Trigger(e.s)
}

func TestVoluntaryRemove(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		g, err := e.reg.Install(th, "p", img, InstallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e.reg.Remove(g)
		if p.Grafted() {
			t.Error("still grafted after Remove")
		}
		// Point is free again.
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
			t.Errorf("re-install after remove: %v", err)
		}
	})
}

func TestUnregisterPointRemovesGrafts(t *testing.T) {
	e := newEnv()
	e.reg.RegisterPoint(newFnPoint("file/9.compute-ra"))
	img := e.buildSafe(t, doubleSrc)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		g, err := e.reg.Install(th, "file/9.compute-ra", img, InstallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e.reg.UnregisterPoint("file/9.compute-ra") // file closed
		if !g.Removed() {
			t.Error("graft survived point unregistration")
		}
		if _, err := e.reg.Lookup("file/9.compute-ra"); err == nil {
			t.Error("point still in namespace")
		}
	})
}

// TestGraftStatePersistsAcrossInvocations: the graft heap is the graft's
// private state, preserved between calls.
func TestGraftStatePersistsAcrossInvocations(t *testing.T) {
	e := newEnv()
	p := e.reg.RegisterPoint(newFnPoint("p"))
	img := e.buildSafe(t, `
.name counter
.func main
main:
    ld r1, [r10+0]
    addi r1, r1, 1
    st [r10+0], r1
    mov r0, r1
    ret
`)
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if _, err := e.reg.Install(th, "p", img, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		for want := int64(1); want <= 3; want++ {
			res, err := p.Invoke(th)
			if err != nil || res != want {
				t.Fatalf("invocation %d: res=%d err=%v", want, res, err)
			}
		}
	})
}

// TestUnsafeInstallGatedThreeWays: the unsafe backdoor needs the
// registry flag AND the option AND Root.
func TestUnsafeInstallGatedThreeWays(t *testing.T) {
	img, err := sfi.BuildUnsafe(doubleSrc)
	if err != nil {
		t.Fatal(err)
	}
	try := func(flag bool, opt bool, uid UID) error {
		e := newEnv()
		e.reg.UnsafeAllowed = flag
		e.reg.RegisterPoint(newFnPoint("p"))
		var got error
		e.run(t, uid, func(th *sched.Thread, _ *resource.Account) {
			_, got = e.reg.Install(th, "p", img, InstallOptions{AllowUnsafe: opt})
		})
		return got
	}
	if err := try(true, true, Root); err != nil {
		t.Errorf("fully-gated unsafe install failed: %v", err)
	}
	if err := try(false, true, Root); err == nil {
		t.Error("unsafe install without registry flag succeeded")
	}
	if err := try(true, false, Root); err == nil {
		t.Error("unsafe install without option succeeded")
	}
	if err := try(true, true, 100); err == nil {
		t.Error("unsafe install by non-root succeeded")
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	if neg {
		return "-" + string(d)
	}
	return string(d)
}

// TestRestoreReleasesOnlyVanishedGrafts: a restore releases the VM of a
// graft installed after the checkpoint, and reinstates a graft removed
// after it with its VM and heap intact.
func TestRestoreReleasesOnlyVanishedGrafts(t *testing.T) {
	e := newEnv()
	pa := e.reg.RegisterPoint(newFnPoint("a"))
	e.reg.RegisterPoint(newFnPoint("b"))
	counter := e.buildSafe(t, `
.name counter
.func main
main:
    ld r1, [r10+0]
    addi r1, r1, 1
    st [r10+0], r1
    mov r0, r1
    ret
`)
	var removed, vanished *Installed
	var snap any
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		var err error
		if removed, err = e.reg.Install(th, "a", counter, InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := pa.Invoke(th); err != nil {
				t.Fatal(err)
			}
		}
		snap = e.reg.CrashSnapshot(nil, 0)
		if vanished, err = e.reg.Install(th, "b", e.buildSafe(t, doubleSrc), InstallOptions{}); err != nil {
			t.Fatal(err)
		}
		e.reg.Remove(removed)
	})
	if removed.VM().Heap() == nil {
		t.Fatal("remove released the graft's VM")
	}
	e.reg.CrashRestore(snap)

	if !vanished.Removed() {
		t.Error("graft installed after the checkpoint survived the restore")
	}
	if vanished.VM().Heap() != nil || vanished.VM().KernelMemory() != nil {
		t.Error("vanished graft's VM still hands out memory")
	}
	if _, err := vanished.VM().Call("main", 1); !errors.Is(err, sfi.ErrReleased) {
		t.Errorf("vanished graft's VM: Call err = %v, want ErrReleased", err)
	}
	if removed.Removed() {
		t.Fatal("graft removed after the checkpoint was not reinstated")
	}
	e.run(t, 1, func(th *sched.Thread, _ *resource.Account) {
		if res, err := pa.Invoke(th); err != nil || res != 3 {
			t.Errorf("reinstated counter = %d, %v; want 3 (its heap kept the count of 2)", res, err)
		}
	})
}
