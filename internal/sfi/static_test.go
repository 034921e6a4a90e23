package sfi

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOptimizerDischargesConstantBaseAccesses(t *testing.T) {
	// Every access is at a constant offset from r10: all checks
	// discharge, zero instructions added.
	img := mustAssemble(t, `
.name static
.func main
main:
    movi r2, 7
    st [r10+64], r2
    addi r3, r10, 128
    st [r3+0], r2
    mov r4, r3
    ld r0, [r4+8]
    ret
`)
	opt, stats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticallySafe != 3 || stats.MemOpsProtected != 0 {
		t.Fatalf("stats = %+v, want all 3 accesses discharged", stats)
	}
	if stats.InstrsAdded != 0 {
		t.Fatalf("optimizer added %d instructions to a fully static graft", stats.InstrsAdded)
	}
	if err := Verify(opt); err != nil {
		t.Fatalf("verifier rejects optimizer output: %v", err)
	}
	vm, _ := NewVM(opt, Config{})
	res, err := vm.Call("main")
	if err != nil {
		t.Fatal(err)
	}
	// heap[128+8] is zero-initialised, so the ld returns 0.
	if res != 0 {
		t.Fatalf("res = %d", res)
	}
	if got := vm.Heap()[64]; got != 7 {
		t.Fatalf("discharged store missing: heap[64]=%d", got)
	}
}

func TestOptimizerKeepsMasksForDynamicAddresses(t *testing.T) {
	// Pointer-chasing access: cannot be discharged.
	img := mustAssemble(t, `
.name dynamic
.func main
main:
    ld r2, [r10+0]   ; static: discharged
    ld r3, [r2+0]    ; dynamic: must stay masked
    ret
`)
	opt, stats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticallySafe != 1 || stats.MemOpsProtected != 1 {
		t.Fatalf("stats = %+v, want 1 discharged + 1 masked", stats)
	}
	found := false
	for _, ins := range opt.Code {
		if ins.Op == SANDBOX {
			found = true
		}
	}
	if !found {
		t.Fatal("dynamic access lost its sandbox")
	}
	if err := Verify(opt); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerResetsAtLandingPoints(t *testing.T) {
	// The ADDI establishing the base+const fact is jumped over by a
	// branch; at the landing point the state must reset, so the access
	// keeps its mask.
	img := mustAssemble(t, `
.name landing
.func main
main:
    addi r2, r10, 64
    jz r1, hop
    movi r2, 0       ; r2 is now a kernel address on this path
hop:
    st [r2+0], r1    ; reachable with r2 unknown -> must be masked
    ret
`)
	opt, stats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticallySafe != 0 || stats.MemOpsProtected != 1 {
		t.Fatalf("stats = %+v, want the access masked", stats)
	}
	if err := Verify(opt); err != nil {
		t.Fatal(err)
	}
	// Behavioural check: with r1=0 the branch takes, r2=0, and the
	// masked store must land in the segment, not kernel memory.
	vm, _ := NewVM(opt, Config{})
	km := vm.KernelMemory()
	for i := range km {
		km[i] = 0x3C
	}
	if _, err := vm.Call("main", 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range km {
		if b != 0x3C {
			t.Fatalf("kernel memory corrupted at %d", i)
		}
	}
}

func TestOptimizerDisabledWhenBaseRegisterWritten(t *testing.T) {
	// The graft overwrites r10 somewhere; no discharge anywhere.
	img := mustAssemble(t, `
.name clobber
.func main
main:
    st [r10+8], r1
    movi r10, 0      ; clobber the base register
    ret
`)
	opt, stats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticallySafe != 0 {
		t.Fatalf("discharged %d accesses despite r10 clobber", stats.StaticallySafe)
	}
	if err := Verify(opt); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerRejectsOutOfWindowOffsets(t *testing.T) {
	// Offset beyond MinSegSize: must stay masked even though it is
	// base-relative (a larger segment is not guaranteed).
	img := mustAssemble(t, `
.name bigoff
.func main
main:
    st [r10+8000], r1
    ret
`)
	opt, stats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticallySafe != 0 || stats.MemOpsProtected != 1 {
		t.Fatalf("stats = %+v, out-of-window access discharged", stats)
	}
	if err := Verify(opt); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerRejectsNegativeOffsets(t *testing.T) {
	img := mustAssemble(t, `
.name neg
.func main
main:
    st [r10-8], r1
    ret
`)
	_, stats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StaticallySafe != 0 {
		t.Fatal("negative base-relative access discharged")
	}
}

func TestVerifierRejectsForgedDischarge(t *testing.T) {
	// A hand-crafted "safe" image with an unmasked dynamic store: the
	// verifier's own dataflow must reject it.
	img := &Image{
		Name: "forged",
		Code: []Instr{
			{Op: MOVI, Rd: 2, Imm: 5}, // r2 = 5 (a kernel address)
			{Op: ST, Rs1: 2, Rs2: 1},  // unmasked store through r2
			{Op: RET},
		},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	if err := Verify(img); err == nil {
		t.Fatal("forged static discharge accepted")
	}
}

func TestVerifierRejectsForgedDischargeAcrossRegion(t *testing.T) {
	// The compartment analogue of the forged-discharge attack: the
	// store sits at base+1032, comfortably inside the flat MinSegSize
	// window the classic proof uses — but the image's own layout puts
	// that offset in the read-only region. A hand-edited image that
	// drops the check must fail the verifier's region-aware re-proof.
	layout := &Layout{
		SegSize: MinSegSize,
		Regions: []Region{
			{Name: "heap", Kind: RegionHeap, Off: 0, Size: 1024, Perm: PermRW},
			{Name: "ro", Kind: RegionRO, Off: 1024, Size: 1024, Perm: PermRead},
			{Name: "stack", Kind: RegionStack, Off: 2048, Size: 2048, Perm: PermRW},
		},
	}
	forge := func(imm int64) *Image {
		return &Image{
			Name: "forged-region",
			Code: []Instr{
				{Op: ADDI, Rd: 1, Rs1: RegHeapBase, Imm: imm},
				{Op: ST, Rs1: 1, Rs2: 2}, // unchecked store, claims discharge
				{Op: RET},
			},
			Funcs:  map[string]int{"main": 0},
			Layout: layout.Clone(),
			Safe:   true,
		}
	}
	if err := Verify(forge(1032)); err == nil {
		t.Fatal("discharged store into the read-only region accepted")
	}
	// Same shape, one byte short of the heap/ro boundary: an 8-byte
	// store at 1020 straddles into ro and must also be rejected.
	if err := Verify(forge(1020)); err == nil {
		t.Fatal("discharged store across a region boundary accepted")
	}
	// Control: the identical image aimed at the heap is a genuine
	// discharge and verifies.
	if err := Verify(forge(16)); err != nil {
		t.Fatalf("genuine in-heap discharge rejected: %v", err)
	}
}

func TestVerifierAcceptsGenuineDischarge(t *testing.T) {
	img := &Image{
		Name: "genuine",
		Code: []Instr{
			{Op: ST, Rs1: RegHeapBase, Rs2: 1, Imm: 16}, // [r10+16]: in-window
			{Op: RET},
		},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	if err := Verify(img); err != nil {
		t.Fatalf("genuine static discharge rejected: %v", err)
	}
}

func TestVerifierRejectsDischargeAfterCall(t *testing.T) {
	// The callee may clobber anything: base+const facts must not
	// survive a call.
	img := &Image{
		Name: "postcall",
		Code: []Instr{
			{Op: ADDI, Rd: 2, Rs1: RegHeapBase, Imm: 8}, // r2 = base+8
			{Op: CALL, Imm: 4},                          // call helper
			{Op: ST, Rs1: 2, Rs2: 1},                    // r2 no longer trusted
			{Op: RET},
			{Op: MOVI, Rd: 2, Imm: 0}, // helper clobbers r2
			{Op: RET},
		},
		Funcs: map[string]int{"main": 0},
		Safe:  true,
	}
	if err := Verify(img); err == nil {
		t.Fatal("state survived a call in the verifier")
	}
}

// TestOptimizedReadAheadGraftZeroOverhead: the paper's control-light
// read-ahead graft only touches constant heap offsets; the optimizer
// removes its entire SFI overhead.
func TestOptimizedReadAheadGraftZeroOverhead(t *testing.T) {
	src := `
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
	img := mustAssemble(t, src)
	naive, nStats, err := Rewrite(img)
	if err != nil {
		t.Fatal(err)
	}
	opt, oStats, err := RewriteOptimized(img)
	if err != nil {
		t.Fatal(err)
	}
	if nStats.InstrsAdded == 0 {
		t.Fatal("naive rewrite added nothing?")
	}
	if oStats.InstrsAdded != 0 || oStats.StaticallySafe != 3 {
		t.Fatalf("optimizer stats = %+v, want full discharge", oStats)
	}
	if len(opt.Code) != len(img.Code) {
		t.Fatalf("optimized code grew: %d -> %d", len(img.Code), len(opt.Code))
	}
	_ = naive
}

// Property: the optimizer preserves semantics exactly on random
// programs (which freely mix static heap-relative and stack traffic).
func TestPropertyOptimizedRewritePreservesSemantics(t *testing.T) {
	f := func(seed int64, nRaw uint8, arg int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genProgram(rng, int(nRaw%40)+5)
		img, err := Assemble(src)
		if err != nil {
			return false
		}
		opt, _, err := RewriteOptimized(img)
		if err != nil {
			return false
		}
		if err := Verify(opt); err != nil {
			t.Logf("verify: %v\n%s", err, Disassemble(opt))
			return false
		}
		uvm, _ := NewVM(img, Config{})
		ovm, _ := NewVM(opt, Config{})
		a, errA := uvm.Call("main", arg)
		b, errB := ovm.Call("main", arg)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		if a != b {
			return false
		}
		uh, oh := uvm.Heap(), ovm.Heap()
		for i := range uh {
			if uh[i] != oh[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: optimized images still cannot escape the segment, whatever
// addresses the source conjures.
func TestPropertyOptimizedNeverEscapes(t *testing.T) {
	check := func(seed int64, addrs []int64) (*Violation, error) {
		var b strings.Builder
		b.WriteString(".name escape\n.func main\nmain:\n")
		rng := rand.New(rand.NewSource(seed))
		for i, a := range addrs {
			if i >= 16 {
				break
			}
			switch rng.Intn(4) {
			case 0:
				b.WriteString("    movi r1, " + itoa(int(a%1_000_000)) + "\n    st [r1+0], r1\n")
			case 1:
				// base-relative with arbitrary (possibly huge) offset
				b.WriteString("    st [r10" + plus(int(a%100_000)) + "], r1\n")
			case 2:
				b.WriteString("    addi r2, r10, " + itoa(int(a%50_000)) + "\n    ld r3, [r2+0]\n")
			case 3:
				b.WriteString("    ld r4, [r10+16]\n")
			}
		}
		b.WriteString("    ret\n")
		img, err := Assemble(b.String())
		if err != nil {
			return nil, err
		}
		opt, _, err := RewriteOptimized(img)
		if err != nil {
			return nil, err
		}
		if err := Verify(opt); err != nil {
			return nil, err
		}
		return maskedRunContained(opt)
	}
	t.Run("regression/store-straddles-arena-end", func(t *testing.T) {
		// The property used to count this trap as a failure: the
		// eighth access, st [r1+0] with r1 = 65529, is masked to 131065
		// and its 8 bytes straddle the arena end.
		addrs := []int64{-5712884578967196615, -6973662499349269683, 7585951235076675426, 0, 0, 0, 0, 65529}
		v, err := check(-4381186059119517547, addrs)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil || v.Ins != "st [s0+0], r1" || !strings.Contains(v.Detail, "address 131065") {
			t.Fatalf("trap = %v, want the straddling st [s0+0], r1 at 131065", v)
		}
	})
	f := func(seed int64, addrs []int64) bool {
		if _, err := check(seed, addrs); err != nil {
			t.Logf("seed %d addrs %v: %v", seed, addrs, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func plus(v int) string {
	if v < 0 {
		return itoa(v)
	}
	return "+" + itoa(v)
}
