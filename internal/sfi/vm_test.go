package sfi

import (
	"errors"
	"strings"
	"testing"
)

func runSrc(t *testing.T, src string, entry string, args ...int64) (int64, *VM) {
	t.Helper()
	img := mustAssemble(t, src)
	vm, err := NewVM(img, Config{})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	res, err := vm.Call(entry, args...)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	return res, vm
}

func TestVMArithmetic(t *testing.T) {
	res, _ := runSrc(t, `
.name arith
.func main
main:
    movi r1, 6
    movi r2, 7
    mul  r0, r1, r2
    ret
`, "main")
	if res != 42 {
		t.Fatalf("result = %d, want 42", res)
	}
}

func TestVMArgsAndComparisons(t *testing.T) {
	src := `
.name max
.func max
max:
    cmplt r3, r1, r2
    jnz r3, second
    mov r0, r1
    ret
second:
    mov r0, r2
    ret
`
	if res, _ := runSrc(t, src, "max", 10, 3); res != 10 {
		t.Fatalf("max(10,3) = %d", res)
	}
	if res, _ := runSrc(t, src, "max", -5, 3); res != 3 {
		t.Fatalf("max(-5,3) = %d", res)
	}
}

func TestVMLoopSum(t *testing.T) {
	// sum 1..n via loop
	res, vm := runSrc(t, `
.name sum
.func main
main:
    movi r0, 0
loop:
    jz r1, done
    add r0, r0, r1
    addi r1, r1, -1
    jmp loop
done:
    ret
`, "main", 100)
	if res != 5050 {
		t.Fatalf("sum = %d, want 5050", res)
	}
	if vm.Steps() < 300 {
		t.Fatalf("steps = %d, implausibly few", vm.Steps())
	}
	if vm.TotalCycles() < vm.Steps() {
		t.Fatal("cycles < steps")
	}
}

func TestVMMemoryReadWrite(t *testing.T) {
	res, _ := runSrc(t, `
.name mem
.func main
main:
    ; store 0x1122 at heap+64, read it back
    movi r2, 0x1122
    addi r3, r10, 64
    st  [r3+0], r2
    ld  r0, [r3+0]
    ret
`, "main")
	if res != 0x1122 {
		t.Fatalf("mem round trip = %#x", res)
	}
}

func TestVMByteOps(t *testing.T) {
	res, _ := runSrc(t, `
.name bytes
.func main
main:
    movi r2, 0x1FF
    addi r3, r10, 10
    stb [r3+0], r2   ; truncates to 0xFF
    ldb r0, [r3+0]   ; zero-extends
    ret
`, "main")
	if res != 0xFF {
		t.Fatalf("byte round trip = %#x", res)
	}
}

func TestVMInitialDataVisible(t *testing.T) {
	res, _ := runSrc(t, `
.name data
.data "\x2A"
.func main
main:
    ldb r0, [r10+0]
    ret
`, "main")
	if res != 42 {
		t.Fatalf("data byte = %d", res)
	}
}

func TestVMPushPop(t *testing.T) {
	res, _ := runSrc(t, `
.name stack
.func main
main:
    movi r1, 11
    movi r2, 22
    push r1
    push r2
    pop r3   ; 22
    pop r4   ; 11
    sub r0, r3, r4
    ret
`, "main")
	if res != 11 {
		t.Fatalf("stack result = %d", res)
	}
}

func TestVMCallRet(t *testing.T) {
	res, _ := runSrc(t, `
.name calls
.func main
main:
    movi r1, 5
    call double
    call double
    mov r0, r1
    ret
double:
    add r1, r1, r1
    ret
`, "main")
	if res != 20 {
		t.Fatalf("result = %d, want 20", res)
	}
}

func TestVMIndirectCall(t *testing.T) {
	res, _ := runSrc(t, `
.name ind
.func main
.target work
main:
    lea r1, work
    callr r1
    ret
work:
    movi r0, 99
    ret
`, "main")
	if res != 99 {
		t.Fatalf("result = %d", res)
	}
}

func TestVMChkcallRejectsUnregisteredTarget(t *testing.T) {
	img := mustAssemble(t, `
.name bad
.func main
main:
    lea r1, hidden
    chkcall r1
    callr r1
    ret
hidden:
    movi r0, 1
    ret
`)
	vm, err := NewVM(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = vm.Call("main")
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want Violation", err)
	}
	if !strings.Contains(v.Detail, "unregistered target") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestVMKernelCall(t *testing.T) {
	img := mustAssemble(t, `
.name k
.import test.add3
.func main
main:
    movi r1, 1
    movi r2, 2
    movi r3, 3
    callk test.add3
    ret
`)
	vm, err := NewVM(img, Config{
		Kernel: map[string]KernelFunc{
			"test.add3": func(vm *VM, args [5]int64) (int64, error) {
				return args[0] + args[1] + args[2], nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	if res != 6 {
		t.Fatalf("kernel call result = %d", res)
	}
}

func TestVMKernelCallErrorPropagates(t *testing.T) {
	img := mustAssemble(t, `
.name k
.import test.fail
.func main
main:
    callk test.fail
    ret
`)
	boom := errors.New("permission denied")
	vm, err := NewVM(img, Config{
		Kernel: map[string]KernelFunc{
			"test.fail": func(vm *VM, args [5]int64) (int64, error) { return 0, boom },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Call("main"); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestVMUnresolvedSymbolRejectedAtLoad(t *testing.T) {
	img := mustAssemble(t, `
.name k
.import test.ghost
.func main
main:
    ret
`)
	if _, err := NewVM(img, Config{}); err == nil {
		t.Fatal("unresolved symbol accepted")
	}
}

func TestVMDivideByZeroTraps(t *testing.T) {
	img := mustAssemble(t, `
.name z
.func main
main:
    movi r1, 1
    movi r2, 0
    div r0, r1, r2
    ret
`)
	vm, _ := NewVM(img, Config{})
	_, err := vm.Call("main")
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("err = %v, want Violation", err)
	}
}

// TestVMUnsafeGraftCorruptsKernelMemory demonstrates the disaster the
// paper opens with: an unprotected graft with a stray pointer writes
// into kernel memory.
func TestVMUnsafeGraftCorruptsKernelMemory(t *testing.T) {
	img := mustAssemble(t, `
.name rogue
.func main
main:
    movi r1, 128       ; an absolute kernel address, below the segment
    movi r2, 0xDEAD
    st [r1+0], r2
    movi r0, 0
    ret
`)
	vm, _ := NewVM(img, Config{})
	kmem := vm.KernelMemory()
	if _, err := vm.Call("main"); err != nil {
		t.Fatalf("unsafe in-arena write should 'succeed' (silent corruption): %v", err)
	}
	if kmem[128] != 0xAD || kmem[129] != 0xDE {
		t.Fatal("kernel memory was not corrupted — unsafe mode too safe")
	}
}

// TestVMKernelMemoryAllocatedOnFirstTouch: kernel memory costs nothing
// until a graft writes below its segment or the kernel asks for it, and
// reads as zeros before that — on both engines.
func TestVMKernelMemoryAllocatedOnFirstTouch(t *testing.T) {
	img := mustAssemble(t, `
.name peek
.func main
main:
    movi r1, 128
    ld r0, [r1+0]
    st [r10+0], r1
    ret
.func poke
poke:
    movi r1, 128
    st [r1+0], r1
    ret
`)
	for _, translate := range []bool{false, true} {
		vm, err := NewVM(img, Config{Translate: translate})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := vm.Call("main"); err != nil || v != 0 {
			t.Fatalf("translate=%v: read of untouched kernel memory = %d, %v; want 0", translate, v, err)
		}
		if vm.kmem != nil {
			t.Fatalf("translate=%v: a read and an in-segment write allocated kernel memory", translate)
		}
		if _, err := vm.Call("poke"); err != nil {
			t.Fatal(err)
		}
		if vm.kmem == nil || vm.KernelMemory()[128] != 128 {
			t.Fatalf("translate=%v: the first kernel-memory write did not land", translate)
		}
		if v, err := vm.Call("main"); err != nil || v != 128 {
			t.Fatalf("translate=%v: read back %d, %v; want 128", translate, v, err)
		}
	}
	vm, err := NewVM(img, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if km := vm.KernelMemory(); len(km) != int(vm.HeapBase()) || vm.kmem == nil {
		t.Fatalf("KernelMemory() = %d bytes, want the %d below the segment, allocated", len(km), vm.HeapBase())
	}
}

// TestVMUnsafeWildPointerCrashesKernel: an out-of-arena access in an
// unprotected graft is the simulated machine check.
func TestVMUnsafeWildPointerCrashesKernel(t *testing.T) {
	img := mustAssemble(t, `
.name wild
.func main
main:
    movi r1, -4096
    ld r0, [r1+0]
    ret
`)
	vm, _ := NewVM(img, Config{})
	_, err := vm.Call("main")
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want CrashError", err)
	}
}

// TestVMSafeGraftCannotEscapeSegment: the same stray addresses, once
// SFI-rewritten, land harmlessly inside the graft's own segment.
func TestVMSafeGraftCannotEscapeSegment(t *testing.T) {
	src := `
.name rogue
.func main
main:
    movi r1, 128
    movi r2, 0xDEAD
    st [r1+0], r2      ; kernel address
    movi r3, -4096
    ld r4, [r3+0]      ; wild pointer
    movi r0, 0
    ret
`
	img := mustAssemble(t, src)
	safe, _, err := Rewrite(img)
	if err != nil {
		t.Fatal(err)
	}
	vm, _ := NewVM(safe, Config{})
	kmem := vm.KernelMemory()
	for i := range kmem {
		kmem[i] = 0x55
	}
	if _, err := vm.Call("main"); err != nil {
		t.Fatalf("sandboxed graft trapped: %v", err)
	}
	for i, b := range kmem {
		if b != 0x55 {
			t.Fatalf("kernel memory corrupted at %d despite SFI", i)
		}
	}
	// The store must have landed inside the segment at offset 128&mask.
	if got := vm.Heap()[128]; got != 0xAD {
		t.Fatalf("masked store missing from segment: heap[128]=%#x", got)
	}
}

func TestVMSandboxInstructionMasks(t *testing.T) {
	res, vm := runSrc(t, `
.name sb
.func main
main:
    movi r1, -1
    sandbox r1
    mov r0, r1
    ret
`, "main")
	base, size := int64(vm.HeapBase()), int64(vm.HeapSize())
	if res < base || res >= base+size {
		t.Fatalf("sandboxed address %d outside [%d,%d)", res, base, base+size)
	}
}

func TestVMCycleLimit(t *testing.T) {
	img := mustAssemble(t, `
.name spin
.func main
main:
    jmp main
`)
	vm, _ := NewVM(img, Config{MaxCycles: 10_000})
	_, err := vm.Call("main")
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
}

func TestVMHookReceivesCycles(t *testing.T) {
	img := mustAssemble(t, `
.name spin
.func main
main:
    jz r1, done
    addi r1, r1, -1
    jmp main
done:
    ret
`)
	var got int64
	vm, _ := NewVM(img, Config{
		HookEvery: 100,
		Hook:      func(c int64) { got += c },
	})
	if _, err := vm.Call("main", 1000); err != nil {
		t.Fatal(err)
	}
	if got != vm.TotalCycles() {
		t.Fatalf("hook saw %d cycles, vm counted %d", got, vm.TotalCycles())
	}
	if got < 3000 {
		t.Fatalf("cycles = %d, implausibly few for 1000 iterations", got)
	}
}

func TestVMHookPanicPropagates(t *testing.T) {
	// The preemption hook may panic (scheduler abort); Call must let it
	// unwind to the transaction wrapper.
	img := mustAssemble(t, `
.name spin
.func main
main:
    jmp main
`)
	sentinel := errors.New("abort")
	vm, _ := NewVM(img, Config{
		HookEvery: 100,
		Hook:      func(int64) { panic(sentinel) },
	})
	defer func() {
		if r := recover(); r != sentinel {
			t.Fatalf("recovered %v, want sentinel", r)
		}
	}()
	_, _ = vm.Call("main")
	t.Fatal("hook panic did not propagate")
}

func TestVMShadowStackOverflow(t *testing.T) {
	img := mustAssemble(t, `
.name rec
.func main
main:
    call main
    ret
`)
	vm, _ := NewVM(img, Config{})
	_, err := vm.Call("main")
	var v *Violation
	if !errors.As(err, &v) || !strings.Contains(v.Detail, "overflow") {
		t.Fatalf("err = %v, want call stack overflow", err)
	}
}

func TestVMStackDisciplineAcrossCalls(t *testing.T) {
	// Return addresses live on the shadow stack, not in graft memory:
	// clobbering the data stack cannot redirect control flow.
	res, _ := runSrc(t, `
.name shadow
.func main
main:
    movi r1, 1
    push r1
    call clobber
    pop r2
    mov r0, r2
    ret
clobber:
    ; overwrite the top 64 bytes of the stack region
    movi r3, 8
    addi r4, r10, 0
    add r4, r4, r11   ; segment end
loop:
    addi r4, r4, -8
    movi r5, 0x6666
    st [r4+0], r5
    addi r3, r3, -1
    jnz r3, loop
    ret
`, "main")
	// The data word was clobbered (expected: grafts can hurt their own
	// data) but control flow returned correctly and the pop reads the
	// clobbered value rather than crashing.
	if res != 0x6666 {
		t.Fatalf("res = %#x, want clobbered stack value", res)
	}
}

func TestVMBadEntry(t *testing.T) {
	img := mustAssemble(t, ".name e\n.func main\nmain:\n ret")
	vm, _ := NewVM(img, Config{})
	if _, err := vm.Call("missing"); err == nil {
		t.Fatal("call of missing entry succeeded")
	}
	if _, err := vm.Call("main", 1, 2, 3, 4, 5, 6); err == nil {
		t.Fatal("six arguments accepted")
	}
}

func TestVMSegSizeMustBePowerOfTwo(t *testing.T) {
	img := mustAssemble(t, ".name e\n.func main\nmain:\n ret")
	if _, err := NewVM(img, Config{SegSize: 3000}); err == nil {
		t.Fatal("non-power-of-two segment accepted")
	}
}

func TestVMDataTooBigRejected(t *testing.T) {
	img := mustAssemble(t, ".name e\n.space 5000\n.func main\nmain:\n ret")
	if _, err := NewVM(img, Config{SegSize: 4096}); err == nil {
		t.Fatal("oversized data accepted")
	}
}
