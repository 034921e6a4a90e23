package harness

import (
	"fmt"
	"strings"
	"time"

	"vino/internal/crash"
	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
)

// The recovery-cost sweep: does scoping recovery to the offending
// graft's rollback domain actually make recovery cost proportional to
// the offender's footprint, not the kernel population? Each grid point
// builds a kernel hosting N graft domains — N owner keys, each with its
// own file, every block owner-stamped through the real write path —
// checkpoints the lot, re-dirties every domain, and measures one
// recovery under each scope: the whole-kernel restore (every domain's
// dirt rewinds) against the domain restore of a single offender (only
// its stamped blocks revert). Whole-kernel cost should track the
// population; domain cost should track one domain.

// RecoveryCostPoint is one grid point of the sweep.
type RecoveryCostPoint struct {
	// Grafts is the number of installed graft domains, each dirtying
	// BlocksPerGraft blocks of its own file between checkpoints.
	Grafts         int
	BlocksPerGraft int
	// KernelUS and GraftUS are mean wall-clock recovery times
	// (microseconds) for one whole-kernel restore and one domain-scoped
	// restore of a single offender.
	KernelUS, GraftUS float64
	// KernelBytes is the file-system payload the whole-kernel restore
	// rewinds (the full image); GraftBytes is the payload the domain
	// restore reverts (the offender's stamped blocks).
	KernelBytes, GraftBytes int64
	// Speedup is KernelUS / GraftUS.
	Speedup float64
}

// recoveryCostEnv is one measurement kernel: ngrafts owner domains,
// each owning one file of nblocks blocks, all written once under the
// owner's stamp, checkpointed, ready for re-dirty rounds.
type recoveryCostEnv struct {
	k       *kernel.Kernel
	fsys    *vfs.FS
	ngrafts int
	nblocks int
}

func newRecoveryCostEnv(ngrafts, nblocks int) (*recoveryCostEnv, error) {
	k := kernel.New(kernel.Config{
		Timeslice:       time.Hour,
		CheckpointEvery: time.Hour, // explicit Checkpoint() only
	})
	e := &recoveryCostEnv{k: k, ngrafts: ngrafts, nblocks: nblocks}
	e.fsys = vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), ngrafts*nblocks+64)
	for i := 0; i < ngrafts; i++ {
		e.fsys.Create(e.fileName(i), int64(nblocks)*vfs.BlockSize, graft.Root, false)
	}
	if err := e.dirtyDomains(ngrafts); err != nil {
		return nil, err
	}
	e.k.Checkpoint() // the base image holds every domain's state
	return e, nil
}

func (e *recoveryCostEnv) fileName(i int) string { return fmt.Sprintf("dom-%d", i) }
func (e *recoveryCostEnv) ownerKey(i int) string { return fmt.Sprintf("g%d", i) }

// dirtyDomains rewrites every block of the first n domains' files, each
// under its domain's owner stamp, through the real write path — so the
// dirty generations and owner stamps fire exactly as they do when a
// graft dispatch wraps the write.
func (e *recoveryCostEnv) dirtyDomains(n int) error {
	var fail error
	for i := 0; i < n; i++ {
		i := i
		e.k.SpawnProcess(fmt.Sprintf("rec-writer/%d", i), graft.Root, func(p *kernel.Process) {
			t := p.Thread
			prev := crash.SetOwner(t, e.ownerKey(i))
			defer crash.SetOwner(t, prev)
			of, err := e.fsys.Open(t, e.fileName(i))
			if err != nil {
				fail = err
				return
			}
			defer of.Close()
			buf := make([]byte, vfs.BlockSize)
			for b := 0; b < e.nblocks; b++ {
				if _, err := of.WriteAt(t, buf, int64(b)*vfs.BlockSize); err != nil {
					fail = err
					return
				}
			}
		})
	}
	if err := e.k.Run(); err != nil {
		return err
	}
	return fail
}

// measureRecoveryCost runs `rounds` re-dirty+recover rounds at one
// grid point and returns the mean recovery times and rewound payloads
// for both scopes. Each round dirties every domain, then restores the
// whole kernel (every domain rewinds) and, on a freshly re-dirtied
// image, domain-restores offender g0 alone.
func measureRecoveryCost(ngrafts, nblocks int) (p RecoveryCostPoint, err error) {
	p = RecoveryCostPoint{Grafts: ngrafts, BlocksPerGraft: nblocks}

	// Whole-kernel scope: Restore() rebuilds every registered subsystem
	// from the checkpoint image, so the payload is the full snapshot.
	e, err := newRecoveryCostEnv(ngrafts, nblocks)
	if err != nil {
		return p, err
	}
	p.KernelBytes = vfs.SnapshotBytes(e.fsys.CrashSnapshot(nil, 0))
	const rounds = 5
	var total time.Duration
	for r := 0; r < rounds; r++ {
		if err := e.dirtyDomains(ngrafts); err != nil {
			return p, err
		}
		start := time.Now()
		if _, ok := e.k.Crash.Restore(); !ok {
			return p, fmt.Errorf("recovery sweep: no checkpoint to restore (grafts=%d)", ngrafts)
		}
		total += time.Since(start)
	}
	p.KernelUS = float64(total) / rounds / float64(time.Microsecond)

	// Domain scope: a fresh environment (the whole-kernel restores above
	// reset the scheduler), same dirt, restore only offender g0.
	e, err = newRecoveryCostEnv(ngrafts, nblocks)
	if err != nil {
		return p, err
	}
	total = 0
	for r := 0; r < rounds; r++ {
		if err := e.dirtyDomains(ngrafts); err != nil {
			return p, err
		}
		start := time.Now()
		_, bytes, ok := e.k.Crash.RestoreDomain(e.ownerKey(0))
		if !ok {
			return p, fmt.Errorf("recovery sweep: no checkpoint for domain restore (grafts=%d)", ngrafts)
		}
		total += time.Since(start)
		p.GraftBytes = bytes
	}
	p.GraftUS = float64(total) / rounds / float64(time.Microsecond)
	if p.GraftUS > 0 {
		p.Speedup = p.KernelUS / p.GraftUS
	}
	return p, nil
}

// RecoveryCostSweep measures recovery cost across graft populations
// under both scopes. Nil takes the default population grid; each domain
// dirties 128 blocks between checkpoints.
func RecoveryCostSweep(grafts []int) ([]RecoveryCostPoint, error) {
	if len(grafts) == 0 {
		grafts = []int{1, 4, 16}
	}
	const blocksPerGraft = 128
	var out []RecoveryCostPoint
	for _, n := range grafts {
		p, err := measureRecoveryCost(n, blocksPerGraft)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatRecoveryCostSweep renders the grid. Recovery times are host
// wall-clock (this is a cost measurement, like a benchmark — not part
// of the deterministic virtual-time artifact).
func FormatRecoveryCostSweep(pts []RecoveryCostPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery cost: whole-kernel restore vs per-graft rollback domain\n")
	fmt.Fprintf(&b, "%8s %10s %12s %12s %14s %14s %9s\n",
		"grafts", "blk/graft", "kernel (us)", "graft (us)", "kernel (bytes)", "graft (bytes)", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %10d %12.1f %12.1f %14d %14d %8.1fx\n",
			p.Grafts, p.BlocksPerGraft, p.KernelUS, p.GraftUS, p.KernelBytes, p.GraftBytes, p.Speedup)
	}
	return b.String()
}
