package harness

import (
	"math"
	"testing"
)

// requireOrder asserts the fundamental Table 2 ordering: each richer
// path costs at least as much as the previous (abort may undercut safe,
// as the paper itself observes for Table 4).
func requireOrder(t *testing.T, tbl *Table) {
	t.Helper()
	get := tbl.Elapsed
	if !(get(PathBase) <= get(PathVINO)) {
		t.Errorf("base %0.1f > vino %0.1f", get(PathBase), get(PathVINO))
	}
	if !(get(PathVINO) < get(PathNull)) {
		t.Errorf("vino %0.1f >= null %0.1f (transaction cost missing)", get(PathVINO), get(PathNull))
	}
	if !(get(PathNull) < get(PathUnsafe)) {
		t.Errorf("null %0.1f >= unsafe %0.1f (graft function cost missing)", get(PathNull), get(PathUnsafe))
	}
	if !(get(PathUnsafe) <= get(PathSafe)) {
		t.Errorf("unsafe %0.1f > safe %0.1f (SFI made code faster?)", get(PathUnsafe), get(PathSafe))
	}
}

func TestTable3ReadAheadShape(t *testing.T) {
	tbl, err := ReadAhead.Table()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	requireOrder(t, tbl)
	// Base ~0.5 us, VINO ~1.5 us: indirection ~1 us.
	if b := tbl.Elapsed(PathBase); b < 0.3 || b > 1.0 {
		t.Errorf("base = %.2f us, want ~0.5", b)
	}
	if ind := tbl.Elapsed(PathVINO) - tbl.Elapsed(PathBase); ind < 0.5 || ind > 2 {
		t.Errorf("indirection = %.2f us, want ~1", ind)
	}
	// Transaction begin+commit dominates the null path (paper: 64 of
	// 65.5 us incremental).
	txnInc := tbl.Elapsed(PathNull) - tbl.Elapsed(PathVINO)
	if txnInc < 50 || txnInc > 85 {
		t.Errorf("transaction increment = %.1f us, want ~64", txnInc)
	}
	// Lock + graft function between null and unsafe (paper: 37 us,
	// mostly the 33 us lock).
	lockInc := tbl.Elapsed(PathUnsafe) - tbl.Elapsed(PathNull)
	if lockInc < 30 || lockInc > 70 {
		t.Errorf("lock+graft increment = %.1f us, want ~37-55", lockInc)
	}
	// MiSFIT overhead on this control-light graft is small (paper: 3 us).
	sfiInc := tbl.Elapsed(PathSafe) - tbl.Elapsed(PathUnsafe)
	if sfiInc < 0 || sfiInc > 10 {
		t.Errorf("SFI increment = %.1f us, want small (~3)", sfiInc)
	}
	// The headline: total graft overhead is large relative to the 0.5 us
	// base decision but bounded (~2 orders of magnitude, as the paper's
	// 107/0.5).
	ratio := tbl.Elapsed(PathSafe) / tbl.Elapsed(PathBase)
	if ratio < 50 || ratio > 500 {
		t.Errorf("safe/base = %.0fx, paper has ~214x", ratio)
	}
}

func TestTable4PageEvictionShape(t *testing.T) {
	tbl, err := PageEviction.Table()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	requireOrder(t, tbl)
	// Base ~39 us by construction of the cost model.
	if b := tbl.Elapsed(PathBase); math.Abs(b-39) > 3 {
		t.Errorf("base = %.1f us, want ~39", b)
	}
	// The graft function (candidate scan) is the dominant increment
	// between null and unsafe, an order of magnitude over base (paper:
	// 199 us increment, 329 total vs 39 base).
	scanInc := tbl.Elapsed(PathUnsafe) - tbl.Elapsed(PathNull)
	if scanInc < 100 {
		t.Errorf("graft-scan increment = %.1f us, want >100 (paper 199)", scanInc)
	}
	if tbl.Elapsed(PathUnsafe) < 5*tbl.Elapsed(PathBase) {
		t.Errorf("unsafe %.1f not an order of magnitude over base %.1f", tbl.Elapsed(PathUnsafe), tbl.Elapsed(PathBase))
	}
	// MiSFIT overhead noticeable but not dominant (paper: 26 us on 329).
	sfiInc := tbl.Elapsed(PathSafe) - tbl.Elapsed(PathUnsafe)
	if sfiInc <= 0 || sfiInc > 0.8*tbl.Elapsed(PathUnsafe) {
		t.Errorf("SFI increment = %.1f us out of line", sfiInc)
	}
}

func TestTable5SchedulingShape(t *testing.T) {
	tbl, err := Scheduling.Table()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	requireOrder(t, tbl)
	// Base = two 27 us switches.
	if b := tbl.Elapsed(PathBase); math.Abs(b-54) > 2 {
		t.Errorf("base = %.1f us, want ~54", b)
	}
	// Paper's headline: the fixed transaction+lock costs sum to roughly
	// twice the process-switch cost.
	txnPlusLock := (tbl.Elapsed(PathNull) - tbl.Elapsed(PathVINO)) +
		33 // lock acquire inside the scan graft
	if txnPlusLock < 1.2*54 || txnPlusLock > 2.8*54 {
		t.Errorf("txn+lock = %.1f us, want ~2x the 54 us switch pair", txnPlusLock)
	}
	// Safe path is a small multiple of a timeslice: ~2%% of 10 ms.
	if s := tbl.Elapsed(PathSafe); s/10000 > 0.05 {
		t.Errorf("safe path = %.1f us, more than 5%% of a 10 ms timeslice", s)
	}
}

func TestTable6EncryptionShape(t *testing.T) {
	tbl, err := Encryption.Table()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	requireOrder(t, tbl)
	// VINO == base (indirection undetectable on a 8 KB copy).
	if d := tbl.Elapsed(PathVINO) - tbl.Elapsed(PathBase); d > 2 {
		t.Errorf("indirection on stream path = %.2f us, want ~0", d)
	}
	// The SFI worst case: MiSFIT multiplies the graft function cost.
	// Paper: unsafe graft fn 166 us -> safe 353 us (2.1x). Isolate the
	// graft function by subtracting the null path's fixed costs (null
	// includes the kernel copy the graft replaces, so compare against
	// the txn-only baseline: null - bcopy).
	txnOnly := tbl.Elapsed(PathNull) - tbl.Elapsed(PathBase)
	unsafeFn := tbl.Elapsed(PathUnsafe) - txnOnly
	safeFn := tbl.Elapsed(PathSafe) - txnOnly
	ratio := safeFn / unsafeFn
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("SFI ratio on store-dense graft = %.2f, want ~2 (paper 2.1)", ratio)
	}
	// And this graft's SFI overhead exceeds 50%% of the whole safe path —
	// the "worst case" claim.
	if sfiInc := tbl.Elapsed(PathSafe) - tbl.Elapsed(PathUnsafe); sfiInc < 0.3*tbl.Elapsed(PathUnsafe) {
		t.Errorf("SFI increment %.1f us too small for the worst case", sfiInc)
	}
}

func TestTable7AbortShape(t *testing.T) {
	tbl, err := BuildAbortTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl.String())
	for _, r := range tbl.Rows {
		// Abort overheads in the paper's 32-38 us band for the null
		// case (ours is the fixed 35 us plus undo/lock remnants).
		if r.NullAbortUS < 30 || r.NullAbortUS > 45 {
			t.Errorf("%s null abort = %.1f us, want 30-45", r.Graft, r.NullAbortUS)
		}
		if r.FullAbortUS < r.NullAbortUS-1 {
			t.Errorf("%s full abort %.1f < null abort %.1f", r.Graft, r.FullAbortUS, r.NullAbortUS)
		}
		// "the full abort cost is only 0%% to 40%% more than the null
		// abort cost" — allow a little headroom.
		if r.FullAbortUS > 1.6*r.NullAbortUS {
			t.Errorf("%s full abort %.1f more than 60%% over null %.1f", r.Graft, r.FullAbortUS, r.NullAbortUS)
		}
	}
	// Encryption's aborts are equal: no locks, no undo.
	for _, r := range tbl.Rows {
		if r.Graft == "Encryption" && math.Abs(r.FullAbortUS-r.NullAbortUS) > 1 {
			t.Errorf("encryption aborts differ: %.1f vs %.1f", r.NullAbortUS, r.FullAbortUS)
		}
	}
}

func TestAbortCostSweepMatchesModel(t *testing.T) {
	pts, err := AbortCostSweep(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 9 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.MeasUS-p.ModelUS) > 0.15*p.ModelUS+1 {
			t.Errorf("L=%d U=%d: measured %.1f us vs model %.1f us", p.Locks, p.Undos, p.MeasUS, p.ModelUS)
		}
	}
	// The per-lock slope: compare L=8 against L=0 at U=0.
	var l0, l8 float64
	for _, p := range pts {
		if p.Undos == 0 && p.Locks == 0 {
			l0 = p.MeasUS
		}
		if p.Undos == 0 && p.Locks == 8 {
			l8 = p.MeasUS
		}
	}
	slope := (l8 - l0) / 8
	if math.Abs(slope-10) > 1.5 {
		t.Errorf("per-lock abort slope = %.2f us, want ~10 (paper §4.5)", slope)
	}
}

func TestLockManagerAblation(t *testing.T) {
	r, err := LockManagerAblation(500)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	penalty := r.PolicyPathUS - r.FastPathUS
	// One policy call (grantable) per uncontended acquire at 35 cycles =
	// 0.292 us at 120 MHz.
	if penalty < 0.15 || penalty > 0.8 {
		t.Errorf("indirection penalty = %.3f us, want ~0.3", penalty)
	}
	if r.PolicyCalls == 0 {
		t.Error("policy path made no policy calls")
	}
}

func TestSFIDensitySweepMonotonic(t *testing.T) {
	pts, err := SFIDensitySweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 4 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Ratio < pts[i-1].Ratio-0.01 {
			t.Errorf("SFI overhead ratio not monotonic in density: %+v", pts)
			break
		}
	}
	if pts[0].Ratio > 1.1 {
		t.Errorf("zero-memory graft pays %.2fx SFI overhead", pts[0].Ratio)
	}
	last := pts[len(pts)-1]
	if last.Ratio < 1.3 {
		t.Errorf("dense graft pays only %.2fx SFI overhead", last.Ratio)
	}
}

func TestEncryptionCorrectness(t *testing.T) {
	if err := EncryptionCorrectness(); err != nil {
		t.Fatal(err)
	}
}

// TestMisfitOptimizerAblation: static discharge eliminates SFI overhead
// on constant-base grafts and leaves dynamic-address grafts protected.
func TestMisfitOptimizerAblation(t *testing.T) {
	pts, err := MisfitOptimizerAblation()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatOptAblation(pts))
	for _, p := range pts {
		switch p.Graft {
		case "read-ahead-style":
			if p.Discharged == 0 {
				t.Error("constant-base graft had nothing discharged")
			}
			if p.OptUS > p.UnsafeUS*1.01 {
				t.Errorf("optimized %0.1f us should match unsafe %0.1f us", p.OptUS, p.UnsafeUS)
			}
			if p.NaiveUS <= p.OptUS {
				t.Errorf("naive %0.1f us not slower than optimized %0.1f us", p.NaiveUS, p.OptUS)
			}
		case "encryption":
			if p.Discharged != 0 {
				t.Errorf("pointer-chasing graft discharged %d accesses", p.Discharged)
			}
			if p.OptUS < p.NaiveUS*0.99 {
				t.Errorf("encryption optimized %0.1f us below naive %0.1f us without discharges", p.OptUS, p.NaiveUS)
			}
		}
	}
}

// TestTimeoutSweepShape: the §4.5 tuning trade-off. Short time-outs
// abort innocent holders; long time-outs let the hog complete its
// monopolising holds and depress worker throughput.
func TestTimeoutSweepShape(t *testing.T) {
	// Note the long point: a time-out must exceed the hog's hold PLUS
	// worst-case queueing (300 + ~30 ms) to never fire — a waiter's
	// time-out aborts whoever holds the lock when it expires, even an
	// innocent holder who inherited the queue (the paper: "we abort the
	// transaction even if the lock was acquired before the graft was
	// invoked"). This is exactly why the paper says intervals must be
	// determined experimentally per resource type.
	pts, err := TimeoutSweep([]int{10, 40, 640})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatTimeoutSweep(pts))
	short, mid, long := pts[0], pts[1], pts[2]
	if short.WorkerAborts == 0 {
		t.Error("10 ms timeout (below the 15 ms hold) aborted no innocent workers")
	}
	if mid.WorkerAborts > short.WorkerAborts {
		t.Errorf("worker aborts did not fall with a longer timeout: %d -> %d", short.WorkerAborts, mid.WorkerAborts)
	}
	if long.WorkerAborts != 0 {
		t.Errorf("640 ms timeout aborted %d innocent workers", long.WorkerAborts)
	}
	if mid.HogAborts == 0 {
		t.Error("40 ms timeout never aborted the 300 ms hog")
	}
	if long.HogCompleted == 0 {
		t.Error("640 ms timeout should let the hog complete")
	}
	if mid.WorkerOps <= long.WorkerOps {
		t.Errorf("worker throughput should fall when the hog survives: mid %d <= long %d", mid.WorkerOps, long.WorkerOps)
	}
	if short.WorkerOps >= mid.WorkerOps {
		t.Errorf("throughput should peak at the interior point: short %d >= mid %d", short.WorkerOps, mid.WorkerOps)
	}
}

// TestTxnProtectionAblation is the thesis in one assertion: without the
// transaction wrapper a failing graft leaves corrupted state and a held
// lock behind; with it, neither survives.
func TestTxnProtectionAblation(t *testing.T) {
	r, err := TxnProtectionAblation()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.String())
	if r.ProtectedCorrupted {
		t.Error("transaction failed to undo the graft's mutation")
	}
	if !r.ProtectedLockFreed {
		t.Error("transaction failed to release the graft's lock")
	}
	if !r.UnprotectedCorrupted {
		t.Error("ablated run should demonstrate the corruption")
	}
	if r.UnprotectedLockFreed {
		t.Error("ablated run should leak the lock")
	}
}
