// Package harness implements the paper's measurement methodology
// (Table 2 / Figure 3): for each sample graft it constructs the six code
// paths —
//
//	Base    kernel path with all graft-support indirection removed
//	VINO    normal kernel path: indirection + return-value verification
//	Null    graft stubs + transaction begin/commit around a null graft
//	Unsafe  the full graft code, unprotected, plus lock overhead
//	Safe    the same graft processed by the SFI rewriter
//	Abort   the safe path ending in transaction abort instead of commit
//
// — and measures each in deterministic virtual time on the simulated
// 120 MHz kernel. Results are reported alongside the paper's measured
// values; the reproduction claim is about *shape* (ordering, which
// increments dominate, ratios), not absolute microseconds, since the
// substrate is a simulator calibrated to the paper's cost constants
// where the paper states them (transaction begin/commit, lock costs,
// function-call cost, disk latency) and derives the rest from its own
// instruction cost model.
package harness

import (
	"fmt"
	"strings"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/sched"
	"vino/internal/sfi"
)

// Path names, in measurement order.
const (
	PathBase   = "Base path"
	PathVINO   = "VINO path"
	PathNull   = "Null path"
	PathUnsafe = "Unsafe path"
	PathSafe   = "Safe path"
	PathAbort  = "Abort path"
)

// PathOrder is the canonical row order of every table.
var PathOrder = []string{PathBase, PathVINO, PathNull, PathUnsafe, PathSafe, PathAbort}

// Row is one measured path.
type Row struct {
	Path      string
	ElapsedUS float64 // measured, virtual microseconds per operation
	PaperUS   float64 // the paper's reported elapsed time (0 if n/a)
}

// Table is one reproduced experiment table.
type Table struct {
	Number int
	Title  string
	Rows   []Row
	Notes  []string
}

// Incremental returns the measured overhead of row i over row i-1.
func (t *Table) Incremental(i int) float64 {
	if i == 0 {
		return 0
	}
	return t.Rows[i].ElapsedUS - t.Rows[i-1].ElapsedUS
}

// Elapsed returns the measured value for a named path.
func (t *Table) Elapsed(path string) float64 {
	for _, r := range t.Rows {
		if r.Path == path {
			return r.ElapsedUS
		}
	}
	return 0
}

// String renders the table in the paper's layout.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d. %s\n", t.Number, t.Title)
	fmt.Fprintf(&b, "%-14s %14s %14s %12s\n", "Path", "measured (us)", "increment", "paper (us)")
	for i, r := range t.Rows {
		inc := ""
		if i > 0 {
			inc = fmt.Sprintf("%+.1f", t.Incremental(i))
		}
		paper := ""
		if r.PaperUS != 0 {
			paper = fmt.Sprintf("%.1f", r.PaperUS)
		}
		fmt.Fprintf(&b, "%-14s %14.1f %14s %12s\n", r.Path, r.ElapsedUS, inc, paper)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Iterations per measured path. The paper ran each test 300–3000 times;
// virtual time is deterministic so fewer suffice, but we keep a healthy
// count to amortise warm-up effects (cold caches, queue growth).
const defaultIters = 200

// Fixture is one experiment path, booted and ready to measure: the
// kernel and substrate are up and the path's graft variant is
// installed.
type Fixture struct {
	K *kernel.Kernel
	// Graft is the installed variant; nil on the Base and VINO paths.
	Graft *graft.Installed
	// Setup prepares iteration i outside the measured region; nil when
	// the path needs none.
	Setup func(i int)
	// Op is the measured operation.
	Op func() error
}

// A Driver measures a fixture. It is called once, on the fixture's
// measuring thread; the fixture supports the experiment's Iters ops.
type Driver func(f *Fixture)

// Experiment is one of the paper's sample grafts (Tables 3–6) with its
// single fixture. The virtual-time table, the graft's Table 7 row and
// the host-clock benchmarks all run that fixture; only the driver
// differs.
type Experiment struct {
	Number int    // paper table number
	Name   string // the graft, as Table 7 labels it
	// Iters is how many ops one fixture supports, and the number the
	// virtual-time table averages over.
	Iters int

	title      string
	body       string             // the graft: Unsafe and Safe paths
	abortBody  string             // the graft trapping after its work: Abort path
	paper      map[string]float64 // the paper's elapsed us per path
	paperAbort [2]float64         // Table 7: (null, full) abort cost in us
	notes      []string
	fixture    func(v variant, drive Driver) error
}

// variant is the graft one path installs: none (src == "") on the Base
// and VINO paths, unprotected on Unsafe, SFI-rewritten otherwise.
type variant struct {
	path string
	src  string
	safe bool
}

// Experiments lists Tables 3–6 in order.
var Experiments = []*Experiment{ReadAhead, PageEviction, Scheduling, Encryption}

// Run boots a fresh fixture for path (one of PathOrder) and hands it to
// drive.
func (x *Experiment) Run(path string, drive Driver) error {
	v := variant{path: path, safe: true}
	switch path {
	case PathNull:
		v.src = nullGraftSrc
	case PathUnsafe:
		v.src, v.safe = x.body, false
	case PathSafe:
		v.src = x.body
	case PathAbort:
		v.src = x.abortBody
	}
	return x.fixture(v, drive)
}

// RunAbort boots the Abort-path fixture with Table 7's graft: the null
// graft that traps at once, or (full) the graft trapping after its work.
func (x *Experiment) RunAbort(full bool, drive Driver) error {
	src := nullAbortSrc
	if full {
		src = x.abortBody
	}
	return x.fixture(variant{path: PathAbort, src: src, safe: true}, drive)
}

// Table measures every path in virtual time.
func (x *Experiment) Table() (*Table, error) {
	tbl := &Table{Number: x.Number, Title: x.title, Notes: x.notes}
	for _, path := range PathOrder {
		var total time.Duration
		err := x.Run(path, func(f *Fixture) {
			// The Abort path's op fails by design; its cost counts.
			total = timed(f.K, x.Iters, f.Setup, func() { _ = f.Op() })
		})
		if err != nil {
			return nil, fmt.Errorf("table %d %s: %w", x.Number, path, err)
		}
		tbl.Rows = append(tbl.Rows, Row{Path: path, ElapsedUS: usPerOp(total, x.Iters), PaperUS: x.paper[path]})
	}
	return tbl, nil
}

// env is one measurement kernel.
type env struct {
	K *kernel.Kernel
}

// newEnv builds a kernel configured for measurement: paper-calibrated
// transaction costs, no context-switch charge (switches are measured
// explicitly where a table calls for them), a long timeslice so
// preemption does not perturb path timing, and the unsafe-graft backdoor
// enabled for the Unsafe path.
func newEnv() *env {
	k := kernel.New(kernel.Config{
		Timeslice:    time.Hour,
		UnsafeGrafts: true,
	})
	return &env{K: k}
}

// usPerOp converts a virtual duration for n ops to microseconds per op.
func usPerOp(d time.Duration, n int) float64 {
	return float64(d) / float64(n) / float64(time.Microsecond)
}

// runOn runs body on a Root process thread and returns the first error
// of body or the kernel run.
func (e *env) runOn(body func(t *sched.Thread) error) error {
	var fail error
	e.K.SpawnProcess("harness", graft.Root, func(p *kernel.Process) {
		fail = body(p.Thread)
	})
	if err := e.K.Run(); err != nil {
		return err
	}
	return fail
}

// buildVariant compiles graft source according to the path being
// measured: rewritten+signed for Safe/Abort, raw for Unsafe.
func (e *env) buildVariant(src string, safe bool) (*sfi.Image, error) {
	if safe {
		img, _, err := sfi.BuildSafe(src, e.K.Signer)
		return img, err
	}
	return sfi.BuildUnsafe(src)
}

// install places a graft variant at a point, using the unsafe backdoor
// when the image is unprotected.
func (e *env) install(t *sched.Thread, point string, img *sfi.Image, opts graft.InstallOptions) (*graft.Installed, error) {
	if !img.Safe {
		opts.AllowUnsafe = true
	}
	return e.K.Grafts.Install(t, point, img, opts)
}

// installVariant builds and installs v at point, which keeps the graft
// across aborts so the path can be run repeatedly. It installs nothing
// (and returns nil) for an ungrafted path.
func (e *env) installVariant(t *sched.Thread, point *graft.Point, v variant) (*graft.Installed, error) {
	if v.src == "" {
		return nil, nil
	}
	img, err := e.buildVariant(v.src, v.safe)
	if err != nil {
		return nil, err
	}
	point.KeepOnAbort = true
	return e.install(t, point.Name, img, graft.InstallOptions{})
}

// timed accumulates the virtual time of op over iters iterations,
// allowing per-iteration setup outside the timed region.
func timed(k *kernel.Kernel, iters int, setup func(i int), op func()) time.Duration {
	var total time.Duration
	for i := 0; i < iters; i++ {
		if setup != nil {
			setup(i)
		}
		t0 := k.Clock.Now()
		op()
		total += k.Clock.Now() - t0
	}
	return total
}

// nullGraftSrc is the minimal graft: accept the argument, do nothing.
const nullGraftSrc = `
.name null
.func main
main:
    mov r0, r1
    ret
`

// nullAbortSrc is the null graft that traps immediately: the Table 7
// "null abort" case.
const nullAbortSrc = `
.name null-abort
.func main
main:
    movi r2, 0
    div r0, r2, r2
    ret
`

// trapTail is the instruction sequence each experiment's Abort-path
// graft variant executes after doing its full work: a division trap,
// standing in for the paper's forced abort "at the end of the graft
// execution in the safe path".
const trapTail = `
    movi r9, 0
    div r0, r0, r9
    ret
`
