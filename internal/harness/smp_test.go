package harness

import (
	"testing"

	"vino/internal/fault"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/netstk"
)

// TestChaosSMPReplay extends the headline determinism claim to
// multi-CPU runs: at every CPU count, equal seeds produce byte-identical
// flight-recorder dumps and the full survival audit passes.
func TestChaosSMPReplay(t *testing.T) {
	for _, ncpu := range []int{1, 4} {
		cfg := ChaosConfig{Seed: 5, Iterations: 24, NCPU: ncpu}
		a, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("ncpu=%d run A: %v", ncpu, err)
		}
		b, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("ncpu=%d run B: %v", ncpu, err)
		}
		if a.TraceDump() != b.TraceDump() {
			t.Fatalf("ncpu=%d: same seed produced different traces", ncpu)
		}
		if a.Summary() != b.Summary() {
			t.Fatalf("ncpu=%d: same seed produced different summaries", ncpu)
		}
		if !a.Survived() {
			t.Fatalf("ncpu=%d: kernel did not survive: %v (follow-up ok: %v)",
				ncpu, a.Violations, a.FollowupOK)
		}
		if a.TraceTotal == 0 {
			t.Fatalf("ncpu=%d: no trace events recorded", ncpu)
		}
	}
}

// TestChaosSMPSchedulesDiffer sanity-checks that NCPU actually changes
// the schedule: the same seed at 1 and 4 CPUs produces different traces
// (if it did not, the refactor would be a no-op).
func TestChaosSMPSchedulesDiffer(t *testing.T) {
	one, err := RunChaos(ChaosConfig{Seed: 5, Iterations: 24, NCPU: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunChaos(ChaosConfig{Seed: 5, Iterations: 24, NCPU: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one.TraceDump() == four.TraceDump() {
		t.Fatal("ncpu=1 and ncpu=4 produced identical traces")
	}
}

// TestChaosExtended runs the widened fault surface: the netio class
// joins the plan and the pager phase drives file-backed memory objects
// under injection. The kernel must survive at 1 and 4 CPUs, and the
// extended schedule must actually differ from the classic one.
func TestChaosExtended(t *testing.T) {
	for _, ncpu := range []int{1, 4} {
		r, err := RunChaos(ChaosConfig{Seed: 3, Iterations: 24, NCPU: ncpu, Extended: true})
		if err != nil {
			t.Fatalf("ncpu=%d: %v", ncpu, err)
		}
		if !r.Survived() {
			t.Fatalf("ncpu=%d extended: kernel did not survive: %v (follow-up ok: %v)",
				ncpu, r.Violations, r.FollowupOK)
		}
	}
	classic, err := RunChaos(ChaosConfig{Seed: 3, Iterations: 24})
	if err != nil {
		t.Fatal(err)
	}
	extended, err := RunChaos(ChaosConfig{Seed: 3, Iterations: 24, Extended: true})
	if err != nil {
		t.Fatal(err)
	}
	if classic.TraceDump() == extended.TraceDump() {
		t.Fatal("extended run produced the classic trace: widened surface is inert")
	}
}

// TestChaosExtendedMidstreamFires proves the netio class reaches the
// wire under the extended surface: across a handful of seeds, at least
// one run must tear a connection down mid-stream and survive it.
func TestChaosExtendedMidstreamFires(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r, err := RunChaos(ChaosConfig{Seed: seed, Iterations: 24, Extended: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Survived() {
			t.Fatalf("seed %d: did not survive: %v", seed, r.Violations)
		}
		if r.Midstream > 0 {
			return
		}
	}
	t.Fatal("no seed in 1..8 produced a mid-stream connection fault")
}

// TestMidstreamTeardownAudit is the targeted unit test behind the
// chaos-level claim: a hand-built plan that fails every network read
// must tear the connection down on the handler's first read, abort the
// handler's transaction, leave an empty response, and balance the
// books — the teardown itself (a physical event) survives the abort.
func TestMidstreamTeardownAudit(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Class: fault.NetIO, EveryN: 1},
	}}
	k := kernel.New(kernel.Config{FaultPlan: plan})
	n := netstk.New(k)
	port := n.Listen("tcp", 7)
	const echoSrc = `
.name midstream-echo
.import net.read
.import net.write
.func main
main:
    addi r2, r10, 512
    movi r3, 128
    callk net.read
    jz r0, out
    mov r3, r0
    addi r2, r10, 512
    callk net.write
out:
    ret
`
	var conn *netstk.Conn
	var fail error
	k.SpawnProcess("midstream", graft.Root, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall(port.Point().Name, echoSrc, graft.InstallOptions{}); err != nil {
			fail = err
			return
		}
		c, err := n.Connect(k.Sched, "tcp", 7, []byte("ping"))
		if err != nil {
			fail = err
			return
		}
		conn = c
		for w := 0; w < 30; w++ {
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
	if !conn.Closed() {
		t.Fatal("mid-stream read fault did not tear the connection down")
	}
	if got := conn.Response(); len(got) != 0 {
		t.Fatalf("aborted handler left a partial response: %q", got)
	}
	st := n.Stats()
	if st.MidstreamFaults != 1 {
		t.Fatalf("MidstreamFaults = %d, want 1", st.MidstreamFaults)
	}
	if st.BytesOut != 0 {
		t.Fatalf("BytesOut = %d after abort, want 0", st.BytesOut)
	}
	tx := k.Txns.Stats()
	if tx.Aborts == 0 {
		t.Fatal("handler transaction did not abort")
	}
	if tx.Begins != tx.Commits+tx.Aborts {
		t.Fatalf("unbalanced transactions: %d begun, %d committed, %d aborted",
			tx.Begins, tx.Commits, tx.Aborts)
	}
	if out := k.Locks.Outstanding(); len(out) > 0 {
		t.Fatalf("leaked locks after teardown: %v", out)
	}
}

// TestSMPThroughputContention is the scaling claim behind
// BenchmarkSMPThroughput: independent compute scales near-linearly with
// CPUs while the lock-bound workload barely moves and reports real
// contended acquisitions.
func TestSMPThroughputContention(t *testing.T) {
	light1, err := SMPThroughput(1, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	light4, err := SMPThroughput(4, 32, false)
	if err != nil {
		t.Fatal(err)
	}
	heavy1, err := SMPThroughput(1, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	heavy4, err := SMPThroughput(4, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	if light4.Throughput < 2.5*light1.Throughput {
		t.Fatalf("light workload did not scale: %f -> %f ops/s",
			light1.Throughput, light4.Throughput)
	}
	if heavy4.Throughput > 1.6*heavy1.Throughput {
		t.Fatalf("heavy workload scaled past the lock: %f -> %f ops/s",
			heavy1.Throughput, heavy4.Throughput)
	}
	if heavy4.LockWaits == 0 {
		t.Fatal("heavy workload reported no contended acquisitions")
	}
	// Replay: the throughput run is part of the deterministic surface.
	again, err := SMPThroughput(4, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *heavy4 {
		t.Fatalf("heavy ncpu=4 replay diverged: %+v != %+v", again, heavy4)
	}
}
