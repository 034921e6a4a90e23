package sfi

// Differential execution harness: the interpreter is the deterministic
// oracle for the translated engine. ExecDiff runs one image on both
// engines under identical configuration and inputs and reports the
// first observable divergence — result value, trap, register file,
// memory image, step/cycle accounting, hook flush schedule (the flushed
// cycles and the step and cycle totals at every hook call), or grant
// audit counters. The redteam corpus, the fuzzer (FuzzTranslateDiff)
// and the graft install tests all drive this one comparator.

import (
	"bytes"
	"fmt"
)

// engineRun is one engine's observable outcome.
type engineRun struct {
	newVMErr error
	prepErr  error
	result   int64
	callErr  error
	regs     [NumRegs]int64
	steps    int64
	cycles   int64
	heap     []byte
	kmem     []byte
	flushes  []hookFlush
	audits   []GrantAudit
	grants   int
}

// hookFlush is what the hook observes at one call: the flushed cycles
// and the VM's step and cycle totals at that instant.
type hookFlush struct{ pending, steps, total int64 }

func runEngine(img *Image, cfg Config, prep func(*VM) error, entry string, args []int64, translate bool) engineRun {
	var out engineRun
	c := cfg
	c.Translate = translate
	c.Program = nil
	userHook := cfg.Hook
	var vm *VM
	c.Hook = func(n int64) {
		out.flushes = append(out.flushes, hookFlush{n, vm.Steps(), vm.TotalCycles()})
		if userHook != nil {
			userHook(n)
		}
	}
	vm, err := NewVM(img, c)
	if err != nil {
		out.newVMErr = err
		return out
	}
	if prep != nil {
		if err := prep(vm); err != nil {
			out.prepErr = err
			return out
		}
	}
	out.result, out.callErr = vm.Call(entry, args...)
	for i := 0; i < NumRegs; i++ {
		out.regs[i] = vm.Reg(i)
	}
	out.steps = vm.Steps()
	out.cycles = vm.TotalCycles()
	out.heap = vm.Heap()
	out.kmem = vm.KernelMemory()
	out.audits = vm.GrantAudits()
	out.grants = vm.ActiveGrants()
	return out
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// ExecDiff executes (entry, args) on the image under both engines and
// returns a descriptive error on the first divergence, nil if the runs
// are observably identical. cfg.Translate/Program are overridden per
// engine; prep (optional) runs against each fresh VM before the call —
// use it to seed regions or open grant windows, and make it
// deterministic or the comparison is meaningless.
func ExecDiff(img *Image, cfg Config, prep func(*VM) error, entry string, args ...int64) error {
	oracle := runEngine(img, cfg, prep, entry, args, false)
	trans := runEngine(img, cfg, prep, entry, args, true)

	if (oracle.newVMErr == nil) != (trans.newVMErr == nil) || errStr(oracle.newVMErr) != errStr(trans.newVMErr) {
		return fmt.Errorf("sfi: diff: NewVM: interpreter=%q translated=%q", errStr(oracle.newVMErr), errStr(trans.newVMErr))
	}
	if oracle.newVMErr != nil {
		return nil // both refused identically
	}
	if errStr(oracle.prepErr) != errStr(trans.prepErr) {
		return fmt.Errorf("sfi: diff: prep: interpreter=%q translated=%q", errStr(oracle.prepErr), errStr(trans.prepErr))
	}
	if oracle.prepErr != nil {
		return nil
	}
	if errStr(oracle.callErr) != errStr(trans.callErr) {
		return fmt.Errorf("sfi: diff: trap mismatch: interpreter=%q translated=%q", errStr(oracle.callErr), errStr(trans.callErr))
	}
	if oracle.callErr == nil && oracle.result != trans.result {
		return fmt.Errorf("sfi: diff: result: interpreter=%d translated=%d", oracle.result, trans.result)
	}
	if oracle.regs != trans.regs {
		return fmt.Errorf("sfi: diff: registers: interpreter=%v translated=%v", oracle.regs, trans.regs)
	}
	if oracle.steps != trans.steps {
		return fmt.Errorf("sfi: diff: steps: interpreter=%d translated=%d", oracle.steps, trans.steps)
	}
	if oracle.cycles != trans.cycles {
		return fmt.Errorf("sfi: diff: cycles: interpreter=%d translated=%d", oracle.cycles, trans.cycles)
	}
	if !bytes.Equal(oracle.heap, trans.heap) {
		return fmt.Errorf("sfi: diff: heap images differ (first at %d)", firstDiff(oracle.heap, trans.heap))
	}
	if !bytes.Equal(oracle.kmem, trans.kmem) {
		return fmt.Errorf("sfi: diff: kernel memory differs (first at %d)", firstDiff(oracle.kmem, trans.kmem))
	}
	if len(oracle.flushes) != len(trans.flushes) {
		return fmt.Errorf("sfi: diff: hook flush count: interpreter=%d translated=%d", len(oracle.flushes), len(trans.flushes))
	}
	for i := range oracle.flushes {
		if o, t := oracle.flushes[i], trans.flushes[i]; o != t {
			return fmt.Errorf("sfi: diff: hook flush #%d (pending, steps, total): interpreter=%v translated=%v", i, o, t)
		}
	}
	if len(oracle.audits) != len(trans.audits) {
		return fmt.Errorf("sfi: diff: grant audits: interpreter=%v translated=%v", oracle.audits, trans.audits)
	}
	for i := range oracle.audits {
		if oracle.audits[i] != trans.audits[i] {
			return fmt.Errorf("sfi: diff: grant audit %q: interpreter=%+v translated=%+v", oracle.audits[i].Region, oracle.audits[i], trans.audits[i])
		}
	}
	if oracle.grants != trans.grants {
		return fmt.Errorf("sfi: diff: live grants: interpreter=%d translated=%d", oracle.grants, trans.grants)
	}
	return nil
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
