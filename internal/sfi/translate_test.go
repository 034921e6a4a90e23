package sfi

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// translateWorkload exercises every instruction family: ALU, div/mod,
// loops, 64-bit and byte memory traffic, push/pop, direct and indirect
// calls, LEA, and a kernel call.
const translateWorkload = `
.name twork
.import test.mix
.func main
.target helper
main:
    movi r1, 200
    movi r0, 0
loop:
    jz r1, done
    add r0, r0, r1
    movi r2, 3
    div r3, r0, r2
    mod r4, r0, r2
    xor r3, r3, r4
    addi r5, r10, 64
    st [r5+0], r3
    ld r3, [r5+0]
    stb [r5+8], r1
    ldb r4, [r5+8]
    push r3
    pop r3
    addi r1, r1, -1
    jmp loop
done:
    lea r1, helper
    callr r1
    movi r1, 5
    movi r2, 6
    callk test.mix
    ret
helper:
    addi r0, r0, 7
    ret
`

func mixKernel() map[string]KernelFunc {
	return map[string]KernelFunc{
		"test.mix": func(vm *VM, args [5]int64) (int64, error) {
			return args[0]*1000 + args[1] + vm.Reg(0)%97, nil
		},
	}
}

// buildAll returns the workload under every toolchain pipeline.
func buildAll(t testing.TB, src string) map[string]*Image {
	t.Helper()
	signer := NewSigner([]byte("translate-test"))
	out := map[string]*Image{}
	unsafe, err := BuildUnsafe(src)
	if err != nil {
		t.Fatalf("BuildUnsafe: %v", err)
	}
	out["unsafe"] = unsafe
	for name, build := range map[string]func(string, *Signer) (*Image, RewriteStats, error){
		"safe":    BuildSafe,
		"safeopt": BuildSafeOptimized,
		"comp":    BuildCompartmented,
		"compopt": BuildCompartmentedOptimized,
	} {
		img, _, err := build(src, signer)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = img
	}
	return out
}

func TestTranslateParityAllPipelines(t *testing.T) {
	for name, img := range buildAll(t, translateWorkload) {
		cfg := Config{Kernel: mixKernel(), HookEvery: 64, Hook: func(int64) {}}
		if err := ExecDiff(img, cfg, nil, "main"); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTranslatedEngineIsActuallyTranslated(t *testing.T) {
	img, _, err := BuildCompartmented(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := NewVM(img, Config{Kernel: mixKernel(), Translate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Translated() {
		t.Fatal("Translate:true produced an interpreting VM")
	}
	if vm.TranslatedProgram().Key() != TranslationKey(img) {
		t.Fatal("program key does not match its image")
	}
	oracle, err := NewVM(img, Config{Kernel: mixKernel()})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Translated() {
		t.Fatal("default VM should interpret")
	}
	a, errA := vm.Call("main")
	b, errB := oracle.Call("main")
	if errA != nil || errB != nil {
		t.Fatalf("calls failed: %v / %v", errA, errB)
	}
	if a != b {
		t.Fatalf("results differ: translated=%d interpreted=%d", a, b)
	}
}

func TestTranslateFusesCertifiedPatterns(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(string, *Signer) (*Image, RewriteStats, error)
	}{
		{"safe", BuildSafe},
		{"comp", BuildCompartmented},
	} {
		img, _, err := tc.build(translateWorkload, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prog, err := Translate(img)
		if err != nil {
			t.Fatalf("%s: Translate: %v", tc.name, err)
		}
		if prog.Fusions() == 0 {
			t.Errorf("%s: no fused superinstructions in a memory-heavy workload", tc.name)
		}
	}
}

func TestTranslateRequiresVerifiableImage(t *testing.T) {
	img, _, err := BuildSafe(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	evil := img.Clone()
	// Strip the chkcall guarding the indirect call: the verifier must
	// refuse, so the translator must too.
	for i, ins := range evil.Code {
		if ins.Op == CHKCALL {
			evil.Code[i] = Instr{Op: NOP}
			break
		}
	}
	if _, err := Translate(evil); err == nil {
		t.Fatal("translator accepted an unverifiable image")
	}
	if _, err := Translate(nil); err == nil {
		t.Fatal("translator accepted a nil image")
	}
}

func TestProgramKeyMismatchRefused(t *testing.T) {
	imgA, _, err := BuildCompartmented(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	imgB, _, err := BuildCompartmented(`
.name other
.func main
main:
    movi r0, 1
    ret
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	progA, err := Translate(imgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVM(imgB, Config{Kernel: mixKernel(), Program: progA}); err == nil {
		t.Fatal("VM accepted a program translated from a different image")
	}
	// The right pairing still loads.
	if _, err := NewVM(imgA, Config{Kernel: mixKernel(), Program: progA}); err != nil {
		t.Fatalf("matching program refused: %v", err)
	}
}

func TestTranslateTrapParity(t *testing.T) {
	signer := NewSigner([]byte("translate-test"))
	type trapCase struct {
		name  string
		img   *Image
		cfg   Config
		prep  func(*VM) error
		entry string
		check string // substring the (identical) trap must carry
	}
	mk := func(t *testing.T, build func(string, *Signer) (*Image, RewriteStats, error), src string) *Image {
		t.Helper()
		img, _, err := build(src, signer)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	mkUnsafe := func(t *testing.T, src string) *Image {
		t.Helper()
		img, err := BuildUnsafe(src)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	cases := []trapCase{
		{
			name:  "div-by-zero",
			img:   mkUnsafe(t, ".name z\n.func main\nmain:\n movi r1, 1\n movi r2, 0\n div r0, r1, r2\n ret"),
			entry: "main", check: "division by zero",
		},
		{
			name:  "cycle-limit",
			img:   mkUnsafe(t, ".name spin\n.func main\nmain:\n jmp main"),
			cfg:   Config{MaxCycles: 777},
			entry: "main", check: "cycle limit",
		},
		{
			name:  "unregistered-indirect",
			img:   mkUnsafe(t, ".name bad\n.func main\nmain:\n lea r1, hidden\n chkcall r1\n callr r1\n ret\nhidden:\n movi r0, 1\n ret"),
			entry: "main", check: "unregistered target",
		},
		{
			name:  "shadow-overflow",
			img:   mkUnsafe(t, ".name rec\n.func main\nmain:\n call main\n ret"),
			entry: "main", check: "call stack overflow",
		},
		{
			name:  "ro-region-store",
			img:   mk(t, BuildCompartmented, ".name ro\n.func main\nmain:\n movi r2, 1\n addi r3, r10, 49152\n st [r3+0], r2\n ret"),
			entry: "main", check: "denied by region",
		},
		{
			name:  "share-without-grant",
			img:   mk(t, BuildCompartmented, ".name sh\n.func main\nmain:\n movi r2, 1\n addi r3, r10, 40960\n st [r3+0], r2\n ret"),
			entry: "main", check: "denied by region",
		},
		{
			name:  "grant-replay-after-revoke",
			img:   mk(t, BuildCompartmented, ".name gr\n.func main\nmain:\n movi r2, 9\n addi r3, r10, 40960\n st [r3+0], r2\n ret"),
			entry: "main", check: "denied by region",
			prep: func(vm *VM) error {
				if _, err := vm.Grant(40960, 64, PermRW); err != nil {
					return err
				}
				if _, err := vm.Call("main"); err != nil {
					return err
				}
				vm.RevokeGrants()
				return nil // the measured call replays against a dead grant
			},
		},
		{
			name:  "pop-underflow",
			img:   mk(t, BuildCompartmented, ".name pu\n.func main\nmain:\n pop r1\n ret"),
			entry: "main", check: "outside the compartment segment",
		},
		{
			name:  "kernel-call-error",
			img:   mkUnsafe(t, ".name ke\n.import test.fail\n.func main\nmain:\n callk test.fail\n ret"),
			cfg:   Config{Kernel: map[string]KernelFunc{"test.fail": func(*VM, [5]int64) (int64, error) { return 0, errors.New("permission denied") }}},
			entry: "main", check: "kernel call test.fail failed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ExecDiff(tc.img, tc.cfg, tc.prep, tc.entry); err != nil {
				t.Fatalf("engines diverge: %v", err)
			}
			// Confirm the shared trap is the intended one.
			cfg := tc.cfg
			cfg.Translate = true
			vm, err := NewVM(tc.img, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.prep != nil {
				if err := tc.prep(vm); err != nil {
					t.Fatal(err)
				}
			}
			_, callErr := vm.Call(tc.entry)
			if callErr == nil || !strings.Contains(callErr.Error(), tc.check) {
				t.Fatalf("translated trap = %v, want substring %q", callErr, tc.check)
			}
		})
	}
}

func TestTranslateGrantAuditParity(t *testing.T) {
	img, _, err := BuildCompartmented(`
.name ga
.func main
main:
    ; 3 writes + 2 reads through the grant window at share+0
    movi r2, 5
    addi r3, r10, 40960
    st [r3+0], r2
    st [r3+8], r2
    stb [r3+16], r2
    ld r4, [r3+0]
    ldb r5, [r3+16]
    mov r0, r4
    ret
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	prep := func(vm *VM) error {
		_, err := vm.Grant(40960, 64, PermRW)
		return err
	}
	if err := ExecDiff(img, Config{}, prep, "main"); err != nil {
		t.Fatalf("engines diverge: %v", err)
	}
	for _, translate := range []bool{false, true} {
		vm, err := NewVM(img, Config{Translate: translate})
		if err != nil {
			t.Fatal(err)
		}
		if err := prep(vm); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("main"); err != nil {
			t.Fatal(err)
		}
		audits := vm.GrantAudits()
		if len(audits) != 1 || audits[0].Region != "share" {
			t.Fatalf("translate=%v: audits = %+v, want one share entry", translate, audits)
		}
		if audits[0].Reads != 2 || audits[0].Writes != 3 {
			t.Fatalf("translate=%v: share audit = %dr/%dw, want 2r/3w", translate, audits[0].Reads, audits[0].Writes)
		}
	}
}

// TestTranslateHookFlushSchedule pins the strongest timing property:
// the preemption hook observes the exact same flush sequence on both
// engines, so virtual-time scheduling cannot tell them apart.
func TestTranslateHookFlushSchedule(t *testing.T) {
	img, _, err := BuildCompartmentedOptimized(translateWorkload, nil)
	if err != nil {
		t.Fatal(err)
	}
	flushes := func(translate bool) []int64 {
		var got []int64
		vm, err := NewVM(img, Config{
			Kernel:    mixKernel(),
			HookEvery: 50,
			Hook:      func(c int64) { got = append(got, c) },
			Translate: translate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Call("main"); err != nil {
			t.Fatal(err)
		}
		return got
	}
	oracle, trans := flushes(false), flushes(true)
	if len(oracle) != len(trans) {
		t.Fatalf("flush counts differ: %d vs %d", len(oracle), len(trans))
	}
	for i := range oracle {
		if oracle[i] != trans[i] {
			t.Fatalf("flush #%d differs: %d vs %d", i, oracle[i], trans[i])
		}
	}
	if len(oracle) < 10 {
		t.Fatalf("only %d flushes; workload too small to trust", len(oracle))
	}
}

// TestTranslateSpinFastForward pins the self-jump fast path (spinStep)
// to the interpreter: whatever the JMP cost, hook period, fuel limit or
// pending cycles on entry, both engines stop on the same instruction
// with the same steps and cycle totals, and every hook call sees the
// same pending/steps/total.
func TestTranslateSpinFastForward(t *testing.T) {
	srcs := []struct {
		name   string
		src    string
		steps  int64 // instructions before the spin
		cycles int64 // their cost under Costs{Default: 1}
	}{
		{"bare", ".name spin\n.func main\nmain:\n jmp main\n", 0, 0},
		// Enters the spin with 2 or 6 cycles pending whenever the hook
		// period is above that.
		{"prologue", ".name spin\n.func main\nmain:\n movi r1, 1\n movi r2, 2\nspin:\n jmp spin\n", 2, 2},
	}
	costs := []struct {
		name string
		c    int64
	}{{"jmp1", 1}, {"jmp3", 3}}
	type spinRun struct {
		steps, total int64
		flushes      []hookFlush
		err          error
		recovered    any
	}
	run := func(t *testing.T, img *Image, cfg Config, translate bool, panicAt int) (out spinRun) {
		t.Helper()
		cfg.Translate = translate
		var vm *VM
		cfg.Hook = func(n int64) {
			out.flushes = append(out.flushes, hookFlush{n, vm.Steps(), vm.TotalCycles()})
			if len(out.flushes) == panicAt {
				panic("abort")
			}
		}
		vm, err := NewVM(img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() { out.recovered = recover() }()
			_, out.err = vm.Call("main")
		}()
		out.steps, out.total = vm.Steps(), vm.TotalCycles()
		return out
	}
	same := func(t *testing.T, a, b spinRun) {
		t.Helper()
		if a.steps != b.steps || a.total != b.total || errStr(a.err) != errStr(b.err) || a.recovered != b.recovered {
			t.Fatalf("interpreter steps=%d total=%d err=%v panic=%v; translated steps=%d total=%d err=%v panic=%v",
				a.steps, a.total, a.err, a.recovered, b.steps, b.total, b.err, b.recovered)
		}
		if len(a.flushes) != len(b.flushes) {
			t.Fatalf("hook calls: interpreter=%d translated=%d", len(a.flushes), len(b.flushes))
		}
		for i := range a.flushes {
			if a.flushes[i] != b.flushes[i] {
				t.Fatalf("hook call #%d (pending, steps, total): interpreter=%v translated=%v", i, a.flushes[i], b.flushes[i])
			}
		}
	}
	for _, s := range srcs {
		img, err := BuildUnsafe(s.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range costs {
			cost := &Costs{Default: c.c}
			pro := s.cycles * c.c
			for _, every := range []int64{1, 7, 2000} {
				for _, past := range []int64{0, 1} {
					name := fmt.Sprintf("%s/%s/every%d/fuel+%d", s.name, c.name, every, past)
					t.Run(name, func(t *testing.T) {
						limit := pro + 1000*c.c + past
						cfg := Config{Costs: cost, HookEvery: every, MaxCycles: limit}
						if err := ExecDiff(img, cfg, nil, "main"); err != nil {
							t.Fatal(err)
						}
						interp, trans := run(t, img, cfg, false, 0), run(t, img, cfg, true, 0)
						same(t, interp, trans)
						// The fuel trap fires on the first iteration that
						// takes total past the limit.
						iters := (limit-pro)/c.c + 1
						if !errors.Is(trans.err, ErrCycleLimit) || trans.steps != s.steps+iters || trans.total != pro+iters*c.c {
							t.Fatalf("translated stopped at steps=%d total=%d err=%v, want steps=%d total=%d and the fuel trap",
								trans.steps, trans.total, trans.err, s.steps+iters, pro+iters*c.c)
						}
					})
				}
				t.Run(fmt.Sprintf("%s/%s/every%d/hook-panics-5th", s.name, c.name, every), func(t *testing.T) {
					cfg := Config{Costs: cost, HookEvery: every}
					interp, trans := run(t, img, cfg, false, 5), run(t, img, cfg, true, 5)
					same(t, interp, trans)
					if trans.recovered != "abort" || len(trans.flushes) != 5 {
						t.Fatalf("translated: panic=%v after %d hook calls, want the 5th call's abort", trans.recovered, len(trans.flushes))
					}
				})
			}
		}
	}
}

// TestTranslateKernelMemoryParity: an unprotected graft's accesses below
// its segment — stores, a store straddling into the segment, push and
// pop — land in kernel memory on both engines, and execution goes on
// past them.
func TestTranslateKernelMemoryParity(t *testing.T) {
	img, err := BuildUnsafe(`
.name stomp
.func main
main:
    movi r2, 0x1122334455667788
    movi r1, 0
    st [r1+0], r2
    stb [r1+9], r2
    ld r3, [r1+0]
    movi r1, 65532
    st [r1+0], r2
    ld r4, [r1+0]
    ldb r5, [r1+2]
    movi sp, 40
    push r2
    pop r6
    add r0, r3, r4
    add r0, r0, r5
    add r0, r0, r6
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxCycles: 10_000} // a step that lost its place loops
	if err := ExecDiff(img, cfg, nil, "main"); err != nil {
		t.Fatal(err)
	}
	cfg.Translate = true
	vm, err := NewVM(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vm.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	const v = 0x1122334455667788
	if want := int64(v + v + 0x66 + v); got != want {
		t.Fatalf("result %#x, want %#x", got, want)
	}
	if km := vm.KernelMemory(); km[0] != 0x88 || km[9] != 0x88 || km[65535] != 0x55 || vm.Heap()[0] != 0x44 {
		t.Fatalf("kernel memory/segment bytes wrong: km[0]=%#x km[9]=%#x km[65535]=%#x heap[0]=%#x", km[0], km[9], km[65535], vm.Heap()[0])
	}
}
