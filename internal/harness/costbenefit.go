package harness

import (
	"fmt"
	"strings"
	"time"

	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/sched"
	"vino/internal/vmm"
)

// RAWinPoint is one point of the §4.1.1 read-ahead cost-benefit sweep.
type RAWinPoint struct {
	ComputeUS float64 // application think time between reads
	PlainUS   float64 // mean per-read elapsed without the graft
	GraftUS   float64 // mean per-read elapsed with the graft
	GainUS    float64 // PlainUS - GraftUS
}

// ReadAheadWinSweep reproduces the §4.1.1 analysis: "the application
// will win if the cost of the read-ahead graft is less than the time the
// application spends between read requests." A random reader announces
// its next block; the sweep varies the compute time between reads and
// reports the per-read gain. The zero crossing should sit near the
// graft's safe-path cost (~110 us here, 107 us in the paper).
func ReadAheadWinSweep(computesUS []float64) ([]RAWinPoint, error) {
	if len(computesUS) == 0 {
		computesUS = []float64{0, 25, 50, 75, 100, 150, 200, 300}
	}
	// Fixed pseudo-random block sequence over a 12 MB file.
	const reads = 50
	nBlocks := int64(12 << 20 / vfs.BlockSize)
	pattern := make([]int64, reads)
	state := int64(987654321)
	for i := range pattern {
		state = (state*1103515245 + 12345) & 0x7FFFFFFF
		pattern[i] = state % nBlocks
	}

	run := func(computeUS float64, useGraft bool) (float64, error) {
		e := newEnv()
		fsys := vfs.New(e.K, vfs.NewDisk(vfs.FujitsuM2694ESA()), 8192)
		fsys.Create("db", 12<<20, graft.Root, false)
		var total time.Duration
		err := e.runOn(func(t *sched.Thread) error {
			of, err := fsys.Open(t, "db")
			if err != nil {
				return err
			}
			var g *graft.Installed
			if useGraft {
				img, err := e.buildVariant(raGraftBody, true)
				if err != nil {
					return err
				}
				g, err = e.install(t, of.RAPoint().Name, img, graft.InstallOptions{})
				if err != nil {
					return err
				}
				poke64(g.VM().Heap(), 16, int64(of.FD()))
			}
			buf := make([]byte, vfs.BlockSize)
			compute := time.Duration(computeUS * float64(time.Microsecond))
			start := e.K.Clock.Now()
			for i, b := range pattern {
				if g != nil {
					if i+1 < len(pattern) {
						poke64(g.VM().Heap(), 0, pattern[i+1]*vfs.BlockSize)
						poke64(g.VM().Heap(), 8, vfs.BlockSize)
					} else {
						poke64(g.VM().Heap(), 8, 0)
					}
				}
				if _, err := of.ReadAt(t, buf, b*vfs.BlockSize); err != nil {
					return err
				}
				if compute > 0 {
					t.Charge(compute)
				}
			}
			total = e.K.Clock.Now() - start
			return nil
		})
		if err != nil {
			return 0, err
		}
		return usPerOp(total, reads), nil
	}

	var out []RAWinPoint
	for _, c := range computesUS {
		plain, err := run(c, false)
		if err != nil {
			return nil, err
		}
		grafted, err := run(c, true)
		if err != nil {
			return nil, err
		}
		out = append(out, RAWinPoint{ComputeUS: c, PlainUS: plain, GraftUS: grafted, GainUS: plain - grafted})
	}
	return out, nil
}

// FormatRAWinSweep renders the sweep.
func FormatRAWinSweep(pts []RAWinPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Read-ahead cost-benefit (s4.1.1): win iff compute time >= graft cost\n")
	fmt.Fprintf(&b, "%12s %14s %14s %12s\n", "compute (us)", "no graft (us)", "graft (us)", "gain (us)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%12.0f %14.1f %14.1f %+12.1f\n", p.ComputeUS, p.PlainUS, p.GraftUS, p.GainUS)
	}
	return b.String()
}

// EvictionCostBenefit reproduces the §4.2.2 arithmetic: the graft may
// disagree with the default victim selection N times for every page
// fault it avoids before it costs more than it saves.
type EvictionCostBenefit struct {
	OverruleCostUS float64 // safe path minus base path (the added cost per disagreement)
	AgreeCostUS    float64 // cost when the graft agrees with the victim
	FaultCostUS    float64 // the benefit of each avoided fault
	BreakEven      float64 // FaultCostUS / OverruleCostUS
}

// String renders the analysis.
func (e *EvictionCostBenefit) String() string {
	return fmt.Sprintf(
		"Eviction cost-benefit (s4.2.2): overrule costs %.0f us, an avoided fault saves %.0f us\n"+
			"  -> the graft may disagree %.0f times per avoided I/O (paper: 57)\n"+
			"  agreement path costs %.0f us (paper: 159 us)\n",
		e.OverruleCostUS, e.FaultCostUS, e.BreakEven, e.AgreeCostUS)
}

// BuildEvictionCostBenefit derives the analysis from the Table 4
// measurements plus an agreement-path measurement.
func BuildEvictionCostBenefit() (*EvictionCostBenefit, error) {
	tbl, err := PageEviction.Table()
	if err != nil {
		return nil, err
	}
	agree, err := measureEvictionAgreement()
	if err != nil {
		return nil, err
	}
	overrule := tbl.Elapsed(PathSafe) - tbl.Elapsed(PathBase)
	fault := 18000.0 // the paper's 18 ms fault cost; vmm.DefaultFaultLatency
	return &EvictionCostBenefit{
		OverruleCostUS: overrule,
		AgreeCostUS:    agree,
		FaultCostUS:    fault,
		BreakEven:      fault / overrule,
	}, nil
}

// measureEvictionAgreement times the safe path when the global victim is
// already cold, so the graft agrees (the paper's cheaper 159 us case:
// the victim check fails fast and no scan runs).
func measureEvictionAgreement() (float64, error) {
	e := newEnv()
	const pages = 512
	v := vmm.New(e.K, pages+128)
	iters := 60
	var total time.Duration
	err := e.runOn(func(t *sched.Thread) error {
		vas := v.NewVAS(t)
		point := vas.EvictPoint()
		img, err := e.buildVariant(evictGraftBody, true)
		if err != nil {
			return err
		}
		g, err := e.install(t, point.Name, img, graft.InstallOptions{})
		if err != nil {
			return err
		}
		heap := g.VM().Heap()
		hot := []int64{0, 1, 2}
		poke64(heap, 0, int64(len(hot)))
		for i, h := range hot {
			poke64(heap, 8+8*i, h)
		}
		for i := int64(0); i < pages; i++ {
			vas.Touch(t, i)
		}
		setup := func(i int) {
			// A cold page is the victim: the graft agrees immediately.
			cold := int64(100 + i)
			vas.Touch(t, cold)
			v.MakeVictimNext(vas, cold)
		}
		total = timed(e.K, iters, setup, func() {
			v.EvictOne(t)
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	return usPerOp(total, iters), nil
}
