package harness

import (
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
)

// schedGraftBody is the §4.3 example schedule-delegate: lock and scan a
// 64-entry process list, examine each entry, return own ID.
const schedGraftBody = `
.name schedule-delegate
.import sched.proc_count
.import sched.proc_id
.func main
main:
    mov r6, r1
    callk sched.proc_count
    mov r7, r0
    movi r8, 0
loop:
    cmplt r2, r8, r7
    jz r2, done
    mov r1, r8
    callk sched.proc_id
    addi r2, r10, 128
    st [r2+0], r0      ; examine the entry (through memory, as the paper's collection class does)
    addi r8, r8, 1
    jmp loop
done:
    mov r0, r6
    ret
`

// schedGraftAbortBody scans, then traps.
const schedGraftAbortBody = `
.name schedule-delegate-abort
.import sched.proc_count
.import sched.proc_id
.func main
main:
    mov r6, r1
    callk sched.proc_count
    mov r7, r0
    movi r8, 0
loop:
    cmplt r2, r8, r7
    jz r2, done
    mov r1, r8
    callk sched.proc_id
    addi r2, r10, 128
    st [r2+0], r0      ; examine the entry (through memory, as the paper's collection class does)
    addi r8, r8, 1
    jmp loop
done:
    mov r0, r6
` + trapTail

// Scheduling is Table 5: the base path is two process switches (a
// yield round trip between two threads); each richer path adds the
// schedule-delegate machinery run at dispatch.
var Scheduling = &Experiment{
	Number:    5,
	Name:      "Scheduling",
	Iters:     defaultIters,
	title:     "Scheduling Graft Overhead (us per two-switch round trip)",
	body:      schedGraftBody,
	abortBody: schedGraftAbortBody,
	paper: map[string]float64{
		PathBase: 54, PathVINO: 55, PathNull: 131, PathUnsafe: 203, PathSafe: 208, PathAbort: 211,
	},
	paperAbort: [2]float64{33, 45},
	notes: []string{
		"base: two context switches at 27 us each, matching the paper's 54 us two-switch base",
		"unsafe/safe: delegate locks and scans a 64-entry process list, then returns its own ID",
	},
	fixture: schedulingFixture,
}

func schedulingFixture(v variant, drive Driver) error {
	k := kernel.New(kernel.Config{
		Timeslice:    time.Hour,
		SwitchCost:   27 * time.Microsecond, // two per round trip = paper's 54 us base
		UnsafeGrafts: true,
	})
	e := &env{K: k}
	k.EnableScheduleDelegation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(1000 + i)
	}
	k.SetProcessList(ids)

	stop := false
	k.SpawnProcess("peer", graft.Root, func(p *kernel.Process) {
		for !stop {
			p.Thread.Yield()
		}
	})
	var fail error
	k.SpawnProcess("client", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		defer func() { stop = true }()
		var g *graft.Installed
		switch v.path {
		case PathBase:
			// No delegate point at all: the pure two-switch round trip.
		case PathVINO:
			k.DelegatePoint(t)
			k.SetDelegationAlwaysConsult(true)
		default:
			if g, fail = e.installVariant(t, k.DelegatePoint(t), v); fail != nil {
				return
			}
		}
		drive(&Fixture{K: k, Graft: g, Op: func() error {
			t.Yield() // park; peer runs and yields; we are re-dispatched
			return nil
		}})
	})
	if err := k.Run(); err != nil {
		return err
	}
	return fail
}
