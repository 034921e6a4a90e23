package redteam

import (
	"strings"
	"testing"

	"vino/internal/sfi"
)

// TestCorpusClean is the tentpole claim: every adversarial image is
// rejected by the verifier or contained at runtime, with the kernel
// memory and read-only region audits intact. Zero escapes.
func TestCorpusClean(t *testing.T) {
	res := Run(Config{Seed: 7})
	if !res.Clean() {
		t.Fatalf("corpus not clean:\n%s", res.Summary())
	}
	if res.Escapes != 0 {
		t.Fatalf("escapes = %d:\n%s", res.Escapes, res.Summary())
	}
	for _, v := range res.Verdicts {
		if !v.OK() {
			t.Errorf("case %s: got %s, want %s (%s)", v.Case, v.Got, v.Want, v.Detail)
		}
	}
	if res.Rejected == 0 || res.Contained == 0 {
		t.Errorf("degenerate corpus: %d rejected, %d contained — want both layers exercised", res.Rejected, res.Contained)
	}
}

// TestCorpusCoversBothLayers pins the corpus composition so cases are
// not silently dropped or downgraded: at least 5 verifier rejections
// and at least 8 runtime containments.
func TestCorpusCoversBothLayers(t *testing.T) {
	var rejects, contains int
	for _, c := range Corpus() {
		switch c.Want {
		case Rejected:
			rejects++
		case Contained:
			contains++
		default:
			t.Errorf("case %s expects %q: corpus cases must expect rejected or contained", c.Name, c.Want)
		}
	}
	if rejects < 5 {
		t.Errorf("verify-reject cases = %d, want >= 5", rejects)
	}
	if contains < 8 {
		t.Errorf("runtime-contain cases = %d, want >= 8", contains)
	}
}

// TestCorpusCleanTranslated: the same zero-escape bar holds when the
// contained cases run on the translated closure engine — translation
// must not open a single hole the interpreter closes.
func TestCorpusCleanTranslated(t *testing.T) {
	res := Run(Config{Seed: 7, Translate: true})
	if !res.Clean() {
		t.Fatalf("corpus not clean under translation:\n%s", res.Summary())
	}
	if res.Escapes != 0 {
		t.Fatalf("escapes = %d under translation:\n%s", res.Escapes, res.Summary())
	}
}

// TestReportIdenticalAcrossEngines: the report is byte-identical whether
// the corpus runs interpreted or translated — every trap fires at the
// same layer with the same detail.
func TestReportIdenticalAcrossEngines(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		interp := Run(Config{Seed: seed}).Summary()
		trans := Run(Config{Seed: seed, Translate: true}).Summary()
		if interp != trans {
			t.Errorf("seed %d: engine reports diverge:\n--- interpreted\n%s\n--- translated\n%s", seed, interp, trans)
		}
	}
}

// TestReportDeterministicAcrossWorkers: the summary is byte-identical
// at any worker-pool size.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		base := Run(Config{Seed: seed, Workers: 1}).Summary()
		for _, w := range []int{2, 4, 8} {
			if got := Run(Config{Seed: seed, Workers: w}).Summary(); got != base {
				t.Errorf("seed %d: summary diverges at %d workers:\n--- workers=1\n%s\n--- workers=%d\n%s", seed, w, base, w, got)
			}
		}
	}
}

// TestAuditFlagsRealEscape: feed the runner an "attack" that is allowed
// to succeed (an unsafe image writing kernel memory directly) and
// confirm the sentinel audit reports an escape rather than containment
// — the corpus's failure detector must itself work.
func TestAuditFlagsRealEscape(t *testing.T) {
	c := Case{
		Name: "planted-escape",
		Want: Contained,
		Build: func() (*sfi.Image, error) {
			// Unsafe (unrewritten, no layout): the VM runs it without
			// region checks, so the store lands in kernel memory.
			img, err := sfi.Assemble(`
.name planted
.func main
main:
    movi r1, -8
    add r1, r1, r10
    movi r2, 1
    st [r1+0], r2
    ret
`)
			return img, err
		},
	}
	v := runCase(c, 99, false)
	if v.Got != Escaped {
		t.Fatalf("planted escape scored %s (%s), want escaped", v.Got, v.Detail)
	}
	if !strings.Contains(v.Detail, "kernel memory modified") {
		t.Errorf("detail = %q, want the kernel-memory audit message", v.Detail)
	}
}

// TestSetupFailureIsNotContainment: an exploit whose harness breaks
// must surface as an escape, not be green-washed as contained.
func TestSetupFailureIsNotContainment(t *testing.T) {
	c := Corpus()[0]
	c.Exploit = func(vm *sfi.VM) error {
		_, err := vm.Grant(0, 8, sfi.PermRW) // heap, not share: must be refused
		if err == nil {
			return nil
		}
		return ErrSetup
	}
	v := runCase(c, 3, false)
	if v.Got != Escaped {
		t.Fatalf("setup failure scored %s, want escaped", v.Got)
	}
}
