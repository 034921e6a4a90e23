package harness

import (
	"vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/sched"
)

// raGraftBody is the §4.1.2 read-ahead graft: read the application's
// announced next extent from the shared buffer (graft heap: offset 0 =
// next offset, 8 = next size, 16 = fd) and pass it to fs.prefetch. The
// ret at the end is main's single exit.
const raGraftBody = `
.name compute-ra
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    jz r4, nothing
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    ret
nothing:
    movi r0, 0
    ret
`

// raGraftAbortBody is the same graft trapping after its work.
const raGraftAbortBody = `
.name compute-ra-abort
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
` + trapTail

// ReadAhead is Table 3: the cost decomposition of the read-ahead graft,
// measured per compute-ra decision (3000 random 4 KB reads of a 12 MB
// file is the enclosing workload; the table isolates the per-read
// policy cost).
var ReadAhead = &Experiment{
	Number:    3,
	Name:      "Read-Ahead",
	Iters:     defaultIters,
	title:     "Read-ahead Graft Overhead (us per compute-ra decision)",
	body:      raGraftBody,
	abortBody: raGraftAbortBody,
	paper: map[string]float64{
		PathBase: 0.5, PathVINO: 1.5, PathNull: 67, PathUnsafe: 104, PathSafe: 107, PathAbort: 108,
	},
	paperAbort: [2]float64{32, 45},
	notes: []string{
		"workload: announce-next-read pattern over a 12 MB file, per paper §4.1.3",
		"lock overhead appears between Null and Unsafe: fs.prefetch takes the shared-buffer lock under the transaction",
	},
	fixture: readAheadFixture,
}

func readAheadFixture(v variant, drive Driver) error {
	e := newEnv()
	fsys := fs.New(e.K, fs.NewDisk(fs.FujitsuM2694ESA()), 4096)
	fsys.Create("db", 12<<20, graft.Root, false)
	return e.runOn(func(t *sched.Thread) error {
		of, err := fsys.Open(t, "db")
		if err != nil {
			return err
		}
		point := of.RAPoint()
		g, err := e.installVariant(t, point, v)
		if err != nil {
			return err
		}
		// The application announces a different next extent each
		// iteration (host-side pokes cost no virtual time).
		blocks := of.File().Blocks()
		f := &Fixture{K: e.K, Graft: g, Setup: func(i int) {
			of.ResetPrefetchQueue()
			if g != nil {
				heap := g.VM().Heap()
				poke64(heap, 0, (int64(i*37)%blocks)*fs.BlockSize)
				poke64(heap, 8, fs.BlockSize)
				poke64(heap, 16, int64(of.FD()))
			}
		}}
		off, size := int64(0), int64(fs.BlockSize)
		if v.path == PathBase {
			f.Op = func() error {
				of.ComputeRABase(t, off, size)
				return nil
			}
		} else {
			f.Op = func() error {
				_, err := point.Invoke(t, off, size)
				return err
			}
		}
		drive(f)
		return nil
	})
}

func poke64(heap []byte, off int, v int64) {
	for i := 0; i < 8; i++ {
		heap[off+i] = byte(uint64(v) >> (8 * i))
	}
}
