package sfi

// Install-time translation of verified images to native Go closures.
//
// The interpreter in vm.go pays a fetch/decode/dispatch tax on every
// GIR instruction and walks the region table on every compartment
// check. This file removes that tax the way the Endokernel enforces
// isolation — at translation time, not per step: Translate compiles an
// image into a Program, a chain of Go closures (one per basic-block
// run of instructions) with the flat SANDBOX mask, the compartmented
// CHKR/CHKW/CHKS region+grant checks, and the call-table probe inlined
// into the closure bodies. Checks still *trap* (never clamp), with
// byte-identical error values; the interpreter remains the
// deterministic oracle and diff.go executes both engines on demand.
//
// Equivalence contract (what "byte-identical" means here):
//
//   - every instruction still bumps VM.Steps and charges its exact
//     cycle cost in program order, so the preemption hook fires at the
//     same flush boundaries, watchdogs and MaxCycles trip at the same
//     instant, and virtual-time traces are unchanged;
//   - every trap constructs the same error value (same type, same PC,
//     same rendered instruction, same detail string) the interpreter
//     would have returned;
//   - call-table probe statistics, grant-audit counters and all other
//     observable VM state evolve identically.
//
// Wall-clock speed comes from three translation-time facts the
// interpreter re-derives per step: the opcode (closures are
// specialized, no switch), the region table (per-check permission
// spans are precomputed, so the hot path is two compares instead of a
// table walk), and the rewriter's instruction patterns (a verified
// check+access sequence fuses into one closure with the bounds check
// inlined against the access it certifies).
//
// Fusion soundness: a fused closure executes the exact sequential
// semantics of its instructions, so it is an equivalence-preserving
// superinstruction for ANY image. The only requirement is that control
// flow cannot enter the middle of the sequence, which the translator
// proves structurally with landingPoints — the same analysis the
// verifier and the static-discharge optimizer trust. Interior PCs keep
// their singleton closures, so even a hand-written image that defeats
// the pattern matcher merely runs unfused, never incorrectly.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// errDone signals a clean return from the entry frame (RET with an
// empty shadow stack, or HALT). It never escapes Program.run.
var errDone = errors.New("sfi: program done")

// stepFn executes one translated step (a single instruction or a fused
// run) against a VM and returns the next pc.
type stepFn func(vm *VM) (int, error)

// span is one permitted [lo,hi) window of the segment for a given
// check class. Spans are one-per-region and never merged: a check must
// be wholly contained in a single region (Layout.Find semantics), so
// an access straddling two adjacent permitted regions still falls back
// to the slow path and traps exactly like the interpreter.
type span struct{ lo, hi int64 }

// Program is a translated image: position-indexed closures plus the
// precomputed check tables they test against. A Program captures only
// image constants — all mutable state lives in the VM passed at run
// time — so one Program is shared by every VM of the same image, which
// is what makes the registry's translation cache sound (and why the
// cache key is a content hash, not an image name: see TranslationKey).
type Program struct {
	key   string
	safe  bool
	steps []stepFn

	// Per-check-class permission spans, segment-relative (empty for
	// flat images).
	readSpans  []span
	writeSpans []span
	stackSpans []span
	segSize    int64

	fused int // fused superinstructions, for tests and the sweep
}

// Key returns the program's content-hash identity (TranslationKey of
// the image it was translated from).
func (p *Program) Key() string { return p.key }

// Fusions returns how many multi-instruction runs were fused into
// single closures.
func (p *Program) Fusions() int { return p.fused }

// TranslationKey is the cache identity of an image for translation
// purposes: a SHA-256 over the canonical encoding. Two images agree on
// the key iff they agree on every byte that affects execution (code,
// data, symbols, entry points, call targets, layout), so a cached
// Program can never be replayed against a different image — the
// closure-cache-poisoning attack the red-team corpus runs.
func TranslationKey(img *Image) string {
	sum := sha256.Sum256(img.Encode())
	return hex.EncodeToString(sum[:])
}

// Translate compiles a verified image into a Program. The image must
// pass Verify — translation is the loader's last stage, after
// signature and safety checks, and refuses anything the verifier
// would: an unverifiable image has no certified check placements to
// fuse against.
func Translate(img *Image) (*Program, error) {
	if img == nil || len(img.Code) == 0 {
		return nil, errors.New("sfi: translate: empty image")
	}
	if err := Verify(img); err != nil {
		return nil, fmt.Errorf("sfi: translate: %w", err)
	}
	p := &Program{
		key:   TranslationKey(img),
		safe:  img.Safe,
		steps: make([]stepFn, len(img.Code)),
	}
	if l := img.Layout; l != nil {
		p.segSize = l.SegSize
		for _, r := range l.Regions {
			s := span{r.Off, r.Off + r.Size}
			if r.Perm&PermRead != 0 {
				p.readSpans = append(p.readSpans, s)
			}
			if r.Perm&PermWrite != 0 {
				p.writeSpans = append(p.writeSpans, s)
			}
			if r.Kind == RegionStack && r.Perm&PermWrite != 0 {
				p.stackSpans = append(p.stackSpans, s)
			}
		}
	}
	// Singletons first: every pc gets a faithful one-instruction
	// closure, so interior positions of fused runs stay executable even
	// though nothing can reach them.
	for pc, ins := range img.Code {
		p.steps[pc] = p.singleStep(pc, ins)
	}
	// Then overlay fused superinstructions at run heads. Greedy
	// left-to-right, skipping consumed instructions so runs never
	// overlap.
	landing := landingPoints(img)
	for pc := 0; pc < len(img.Code); {
		if f, n := p.fuse(img, landing, pc); f != nil {
			p.steps[pc] = f
			p.fused++
			pc += n
			continue
		}
		pc++
	}
	return p, nil
}

// run drives a translated program from pc. The loop mirrors the
// interpreter's outer loop exactly: the same out-of-range trap, then
// the step body (which charges, checks fuel and executes like the
// interpreter's switch arm).
func (p *Program) run(vm *VM, pc int) error {
	steps := p.steps
	for {
		if pc < 0 || pc >= len(steps) {
			if vm.img.Safe {
				return &Violation{PC: pc, Ins: "?", Detail: "control flow left the code segment"}
			}
			return &CrashError{PC: pc, Ins: "?", Detail: "control flow left the code segment"}
		}
		next, err := steps[pc](vm)
		if err != nil {
			if err == errDone {
				return nil
			}
			return err
		}
		pc = next
	}
}

// spansFor returns the permission spans a check opcode tests against.
func (p *Program) spansFor(op Op) []span {
	switch op {
	case CHKR:
		return p.readSpans
	case CHKW:
		return p.writeSpans
	case CHKS:
		return p.stackSpans
	}
	return nil
}

// inSpans is the fused fast path of a region check: [off,off+width)
// wholly inside one permitted region. Anything else — out of segment,
// straddling, grant-only, denied — falls back to VM.regionCheck, which
// resolves grants and constructs the interpreter's exact trap.
func inSpans(spans []span, off, width, segSize int64) bool {
	if off < 0 || off+width > segSize {
		return false
	}
	for _, s := range spans {
		if off >= s.lo && off+width <= s.hi {
			return true
		}
	}
	return false
}

// accessWidth returns the byte width of a memory-access opcode.
func accessWidth(op Op) int64 {
	if op == LDB || op == STB {
		return 1
	}
	return 8
}

// fastLoad/fastStore perform an access already proven in-segment, at
// segment offset off. Little-endian, exactly the interpreter's byte
// loops.
func fastLoad(vm *VM, off uint64, width int64) int64 {
	if width == 1 {
		return int64(vm.seg[off])
	}
	return int64(binary.LittleEndian.Uint64(vm.seg[off:]))
}

func fastStore(vm *VM, off uint64, width int64, v int64) {
	if width == 1 {
		vm.seg[off] = byte(v)
		return
	}
	binary.LittleEndian.PutUint64(vm.seg[off:], uint64(v))
}

// fuse recognises the rewriter's certified instruction patterns at pc
// and returns a superinstruction closure plus the number of
// instructions consumed, or (nil, 0). Every pattern requires that no
// landing point falls after the head — control flow provably cannot
// enter mid-run.
func (p *Program) fuse(img *Image, landing map[int]bool, pc int) (stepFn, int) {
	if !img.Safe {
		// Unsafe images carry no certified checks; they run on
		// singletons (decode removal only).
		return nil, 0
	}
	code := img.Code
	// Two-instruction pattern: CHKCALL rs ; CALLR rs.
	if pc+1 < len(code) && !landing[pc+1] {
		a, b := code[pc], code[pc+1]
		if a.Op == CHKCALL && b.Op == CALLR && a.Rs1 == b.Rs1 {
			if f := p.fuseCheckedCall(pc, a, b); f != nil {
				return f, 2
			}
		}
	}
	if pc+2 >= len(code) || landing[pc+1] || landing[pc+2] {
		return nil, 0
	}
	a, b, c := code[pc], code[pc+1], code[pc+2]
	switch {
	// ADDI rd,rs,imm ; CHKR/CHKW/CHKS rd,w ; access [rd+0]
	// (covers plain accesses and the PUSH expansion, where rd is SP).
	case a.Op == ADDI && (b.Op == CHKR || b.Op == CHKW || b.Op == CHKS) &&
		b.Rd == a.Rd && c.accessesMem() && c.Op != PUSH && c.Op != POP &&
		c.Rs1 == a.Rd && c.Imm == 0 && b.Imm == accessWidth(c.Op) &&
		img.Layout != nil:
		return p.fuseRegionAccess(pc, a, b, c), 3
	// CHKR sp,8 ; LD rd,[sp+0] ; ADDI sp,sp,8 (the POP expansion).
	case a.Op == CHKR && a.Rd == RegSP && a.Imm == 8 &&
		b.Op == LD && b.Rs1 == RegSP && b.Imm == 0 &&
		c.Op == ADDI && c.Rd == RegSP && c.Rs1 == RegSP && c.Imm == 8 &&
		img.Layout != nil:
		return p.fusePopExpansion(pc, a, b), 3
	// ADDI rd,rs,imm ; SANDBOX rd ; access [rd+0] (the flat pipeline).
	case a.Op == ADDI && b.Op == SANDBOX && b.Rd == a.Rd &&
		c.accessesMem() && c.Op != PUSH && c.Op != POP &&
		c.Rs1 == a.Rd && c.Imm == 0 && img.Layout == nil:
		return p.fuseSandboxAccess(pc, a, c), 3
	}
	return nil, 0
}

// fuseRegionAccess compiles the compartment pipeline's certified
// triple: address formation, region check, access. The fast path
// replaces the interpreter's region-table walk with a span compare;
// every miss (out of segment, straddle, grant-only share, permission
// denial) takes the interpreter's own regionCheck so traps and grant
// audits stay identical.
func (p *Program) fuseRegionAccess(pc int, a, b, c Instr) stepFn {
	aOp, aRd, aRs1, aImm := a.Op, a.Rd, a.Rs1, a.Imm
	bOp, chkPC, chkIns := b.Op, pc+1, b
	cOp, cRd, cRs2 := c.Op, c.Rd, c.Rs2
	width := accessWidth(cOp)
	spans := p.spansFor(bOp)
	segSize := p.segSize
	isStore := cOp == ST || cOp == STB
	next := pc + 3
	return func(vm *VM) (int, error) {
		if err := vm.tick(vm.costTab[aOp]); err != nil {
			return 0, err
		}
		addr := vm.regs[aRs1] + aImm
		vm.regs[aRd] = addr
		if err := vm.tick(vm.costTab[bOp]); err != nil {
			return 0, err
		}
		off := addr - int64(vm.segBase)
		if !inSpans(spans, off, width, segSize) {
			if err := vm.regionCheck(chkPC, chkIns); err != nil {
				return 0, err
			}
		}
		if err := vm.tick(vm.costTab[cOp]); err != nil {
			return 0, err
		}
		if isStore {
			fastStore(vm, uint64(off), width, vm.regs[cRs2])
		} else {
			vm.regs[cRd] = fastLoad(vm, uint64(off), width)
		}
		return next, nil
	}
}

// fusePopExpansion compiles the compartment POP lowering: stack-read
// check, load through SP, SP bump.
func (p *Program) fusePopExpansion(pc int, a, b Instr) stepFn {
	chkPC, chkIns := pc, a
	bRd := b.Rd
	spans := p.readSpans
	segSize := p.segSize
	next := pc + 3
	return func(vm *VM) (int, error) {
		if err := vm.tick(vm.costTab[CHKR]); err != nil {
			return 0, err
		}
		off := vm.regs[RegSP] - int64(vm.segBase)
		if !inSpans(spans, off, 8, segSize) {
			if err := vm.regionCheck(chkPC, chkIns); err != nil {
				return 0, err
			}
		}
		if err := vm.tick(vm.costTab[LD]); err != nil {
			return 0, err
		}
		vm.regs[bRd] = fastLoad(vm, uint64(off), 8)
		if err := vm.tick(vm.costTab[ADDI]); err != nil {
			return 0, err
		}
		vm.regs[RegSP] += 8
		return next, nil
	}
}

// fuseSandboxAccess compiles the flat pipeline's certified triple:
// address formation, sandbox mask, access. The mask confines the
// address to the segment; only an 8-byte access in the segment's last
// 7 bytes can still overrun the arena, and that tail case takes the
// interpreter's load/store for the identical memErr.
func (p *Program) fuseSandboxAccess(pc int, a, c Instr) stepFn {
	aRd, aRs1, aImm := a.Rd, a.Rs1, a.Imm
	cOp, cRd, cRs2 := c.Op, c.Rd, c.Rs2
	accPC, accIns := pc+2, c
	width := accessWidth(cOp)
	isStore := cOp == ST || cOp == STB
	next := pc + 3
	return func(vm *VM) (int, error) {
		if err := vm.tick(vm.costTab[ADDI]); err != nil {
			return 0, err
		}
		vm.regs[aRd] = vm.regs[aRs1] + aImm
		if err := vm.tick(vm.costTab[SANDBOX]); err != nil {
			return 0, err
		}
		off := uint64(vm.regs[aRd]) & (vm.segSize - 1)
		addr := int64(vm.segBase | off)
		vm.regs[aRd] = addr
		if err := vm.tick(vm.costTab[cOp]); err != nil {
			return 0, err
		}
		if off+uint64(width) > vm.segSize {
			// Segment-tail overrun: the interpreter's path reports it.
			if isStore {
				return 0, vm.store(accPC, accIns, addr, int(width), vm.regs[cRs2])
			}
			v, err := vm.load(accPC, accIns, addr, int(width))
			if err != nil {
				return 0, err
			}
			vm.regs[cRd] = v
			return next, nil
		}
		if isStore {
			fastStore(vm, off, width, vm.regs[cRs2])
		} else {
			vm.regs[cRd] = fastLoad(vm, off, width)
		}
		return next, nil
	}
}

// fuseCheckedCall compiles CHKCALL+CALLR. The table probe still runs
// through CallTable.Contains so probe statistics (the paper's 10–15
// cycle cost model evidence) accumulate identically.
func (p *Program) fuseCheckedCall(pc int, a, b Instr) stepFn {
	rs1 := a.Rs1
	chkStr := a.String()
	callStr := b.String()
	callPC := pc + 1
	ret := pc + 2
	return func(vm *VM) (int, error) {
		if err := vm.tick(vm.costTab[CHKCALL]); err != nil {
			return 0, err
		}
		target := vm.regs[rs1]
		if !vm.table.Contains(target) {
			return 0, &Violation{PC: pc, Ins: chkStr, Detail: fmt.Sprintf("indirect call to unregistered target %d", target)}
		}
		if err := vm.tick(vm.costTab[CALLR]); err != nil {
			return 0, err
		}
		if len(vm.shadow) >= maxShadowDepth {
			return 0, &Violation{PC: callPC, Ins: callStr, Detail: "call stack overflow"}
		}
		vm.shadow = append(vm.shadow, ret)
		return int(vm.regs[rs1]), nil
	}
}

// singleStep builds the faithful one-instruction closure for pc: the
// interpreter's switch arm, specialized at translation time (opcode,
// operands and the rendered instruction string are baked in).
func (p *Program) singleStep(pc int, ins Instr) stepFn {
	op := ins.Op
	rd, rs1, rs2, imm := ins.Rd, ins.Rs1, ins.Rs2, ins.Imm
	next := pc + 1
	switch op {
	case NOP:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[NOP]); err != nil {
				return 0, err
			}
			return next, nil
		}
	case MOVI, LEA:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[op]); err != nil {
				return 0, err
			}
			vm.regs[rd] = imm
			return next, nil
		}
	case MOV:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[MOV]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1]
			return next, nil
		}
	case ADD:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[ADD]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] + vm.regs[rs2]
			return next, nil
		}
	case SUB:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[SUB]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] - vm.regs[rs2]
			return next, nil
		}
	case MUL:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[MUL]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] * vm.regs[rs2]
			return next, nil
		}
	case DIV, MOD:
		insStr := ins.String()
		isDiv := op == DIV
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[op]); err != nil {
				return 0, err
			}
			d := vm.regs[rs2]
			if d == 0 {
				return 0, &Violation{PC: pc, Ins: insStr, Detail: "division by zero"}
			}
			if isDiv {
				vm.regs[rd] = vm.regs[rs1] / d
			} else {
				vm.regs[rd] = vm.regs[rs1] % d
			}
			return next, nil
		}
	case AND:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[AND]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] & vm.regs[rs2]
			return next, nil
		}
	case OR:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[OR]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] | vm.regs[rs2]
			return next, nil
		}
	case XOR:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[XOR]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] ^ vm.regs[rs2]
			return next, nil
		}
	case SHL:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[SHL]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] << (uint64(vm.regs[rs2]) & 63)
			return next, nil
		}
	case SHR:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[SHR]); err != nil {
				return 0, err
			}
			vm.regs[rd] = int64(uint64(vm.regs[rs1]) >> (uint64(vm.regs[rs2]) & 63))
			return next, nil
		}
	case ADDI:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[ADDI]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] + imm
			return next, nil
		}
	case ANDI:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[ANDI]); err != nil {
				return 0, err
			}
			vm.regs[rd] = vm.regs[rs1] & imm
			return next, nil
		}
	case CMPEQ:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CMPEQ]); err != nil {
				return 0, err
			}
			vm.regs[rd] = b2i(vm.regs[rs1] == vm.regs[rs2])
			return next, nil
		}
	case CMPLT:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CMPLT]); err != nil {
				return 0, err
			}
			vm.regs[rd] = b2i(vm.regs[rs1] < vm.regs[rs2])
			return next, nil
		}
	case CMPLE:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CMPLE]); err != nil {
				return 0, err
			}
			vm.regs[rd] = b2i(vm.regs[rs1] <= vm.regs[rs2])
			return next, nil
		}
	case JMP:
		target := int(imm)
		if target == pc {
			return spinStep(pc)
		}
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[JMP]); err != nil {
				return 0, err
			}
			return target, nil
		}
	case JZ:
		target := int(imm)
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[JZ]); err != nil {
				return 0, err
			}
			if vm.regs[rs1] == 0 {
				return target, nil
			}
			return next, nil
		}
	case JNZ:
		target := int(imm)
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[JNZ]); err != nil {
				return 0, err
			}
			if vm.regs[rs1] != 0 {
				return target, nil
			}
			return next, nil
		}
	case LD, LDB:
		width := accessWidth(op)
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[op]); err != nil {
				return 0, err
			}
			addr := vm.regs[rs1] + imm
			if off, ok := vm.segOff(addr, int(width)); ok {
				vm.regs[rd] = fastLoad(vm, off, width)
				return next, nil
			}
			v, err := vm.load(pc, ins, addr, int(width))
			if err != nil {
				return 0, err
			}
			vm.regs[rd] = v
			return next, nil
		}
	case ST, STB:
		width := accessWidth(op)
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[op]); err != nil {
				return 0, err
			}
			addr := vm.regs[rs1] + imm
			if off, ok := vm.segOff(addr, int(width)); ok {
				fastStore(vm, off, width, vm.regs[rs2])
				return next, nil
			}
			if err := vm.store(pc, ins, addr, int(width), vm.regs[rs2]); err != nil {
				return 0, err
			}
			return next, nil
		}
	case PUSH:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[PUSH]); err != nil {
				return 0, err
			}
			vm.regs[RegSP] -= 8
			addr := vm.regs[RegSP]
			if off, ok := vm.segOff(addr, 8); ok {
				fastStore(vm, off, 8, vm.regs[rs1])
				return next, nil
			}
			if err := vm.store(pc, ins, addr, 8, vm.regs[rs1]); err != nil {
				return 0, err
			}
			return next, nil
		}
	case POP:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[POP]); err != nil {
				return 0, err
			}
			addr := vm.regs[RegSP]
			if off, ok := vm.segOff(addr, 8); ok {
				vm.regs[rd] = fastLoad(vm, off, 8)
			} else {
				v, err := vm.load(pc, ins, addr, 8)
				if err != nil {
					return 0, err
				}
				vm.regs[rd] = v
			}
			vm.regs[RegSP] += 8
			return next, nil
		}
	case CALL:
		insStr := ins.String()
		target := int(imm)
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CALL]); err != nil {
				return 0, err
			}
			if len(vm.shadow) >= maxShadowDepth {
				return 0, &Violation{PC: pc, Ins: insStr, Detail: "call stack overflow"}
			}
			vm.shadow = append(vm.shadow, next)
			return target, nil
		}
	case CALLR:
		insStr := ins.String()
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CALLR]); err != nil {
				return 0, err
			}
			if len(vm.shadow) >= maxShadowDepth {
				return 0, &Violation{PC: pc, Ins: insStr, Detail: "call stack overflow"}
			}
			vm.shadow = append(vm.shadow, next)
			return int(vm.regs[rs1]), nil
		}
	case CALLK:
		insStr := ins.String()
		idx := int(imm)
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CALLK]); err != nil {
				return 0, err
			}
			if idx < 0 || idx >= len(vm.kernel) {
				return 0, &Violation{PC: pc, Ins: insStr, Detail: "kernel symbol index out of range"}
			}
			vm.flush() // kernel time is accounted separately by the callee
			var args [5]int64
			copy(args[:], vm.regs[1:6])
			res, err := vm.kernel[idx](vm, args)
			if err != nil {
				return 0, fmt.Errorf("sfi: kernel call %s failed: %w", vm.img.Symbols[idx], err)
			}
			vm.regs[0] = res
			return next, nil
		}
	case RET:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[RET]); err != nil {
				return 0, err
			}
			if len(vm.shadow) == 0 {
				return 0, errDone
			}
			ret := vm.shadow[len(vm.shadow)-1]
			vm.shadow = vm.shadow[:len(vm.shadow)-1]
			return ret, nil
		}
	case HALT:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[HALT]); err != nil {
				return 0, err
			}
			return 0, errDone
		}
	case SANDBOX:
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[SANDBOX]); err != nil {
				return 0, err
			}
			vm.regs[rd] = int64(vm.segBase | (uint64(vm.regs[rd]) & (vm.segSize - 1)))
			return next, nil
		}
	case CHKR, CHKW, CHKS:
		spans := p.spansFor(op)
		width := imm
		segSize := p.segSize
		fastable := width == 1 || width == 8
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[op]); err != nil {
				return 0, err
			}
			if fastable && inSpans(spans, vm.regs[rd]-int64(vm.segBase), width, segSize) {
				return next, nil
			}
			if err := vm.regionCheck(pc, ins); err != nil {
				return 0, err
			}
			return next, nil
		}
	case CHKCALL:
		insStr := ins.String()
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[CHKCALL]); err != nil {
				return 0, err
			}
			if !vm.table.Contains(vm.regs[rs1]) {
				return 0, &Violation{PC: pc, Ins: insStr, Detail: fmt.Sprintf("indirect call to unregistered target %d", vm.regs[rs1])}
			}
			return next, nil
		}
	default:
		insStr := ins.String()
		return func(vm *VM) (int, error) {
			if err := vm.tick(vm.costTab[NOP]); err != nil {
				return 0, err
			}
			return 0, &Violation{PC: pc, Ins: insStr, Detail: "illegal opcode"}
		}
	}
}

// spinStep compiles a self-jump (`spin: jmp spin`), the shape of a graft
// spinning until the watchdog or a lock time-out aborts it. A self-jump
// reads and writes no state, so running it k times only adds k to steps
// and k*c to pending and total (c = the JMP cost). The closure does that
// in closed form for all but the last of the k iterations that reach the
// next event — the hook flush or the fuel trap, whichever comes first —
// and runs the k-th through tick. The flush, a hook's abort panic and
// ErrCycleLimit therefore happen with exactly the steps/total/pending
// per-step execution would have. It returns to Program.run after every
// event, so k is recomputed after every hook.
func spinStep(pc int) stepFn {
	return func(vm *VM) (int, error) {
		c := vm.costTab[JMP]
		if c > 0 {
			// Ticks until pending reaches hookEvr (the flush) ...
			k := (vm.hookEvr - vm.pending + c - 1) / c
			// ... or total first exceeds maxCyc (the fuel trap).
			if vm.maxCyc > 0 {
				if f := (vm.maxCyc-vm.total)/c + 1; f < k {
					k = f
				}
			}
			if k > 1 {
				vm.steps += k - 1
				vm.pending += (k - 1) * c
				vm.total += (k - 1) * c
			}
		}
		if err := vm.tick(vm.costTab[JMP]); err != nil {
			return 0, err
		}
		return pc, nil
	}
}
