package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"vino"
)

// The paper's four grafts (§4.1–§4.4), written for this benchmark in
// GIR assembly. Each is well-behaved: it commits on every call.
const (
	// readAheadSrc passes the application's announced next extent (heap
	// offset 0 = offset, 8 = size, 16 = fd) to fs.prefetch.
	readAheadSrc = `
.name bench-read-ahead
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    jz r4, none
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    ret
none:
    movi r0, 0
    ret
`
	// evictSrc keeps the application's hot pages (heap offset 0 =
	// count, then vpns) resident: when the kernel's victim is hot it
	// scans the candidate list the kernel publishes at offset 1024 and
	// returns the last cold page, else it agrees with the kernel.
	evictSrc = `
.name bench-evict
.func main
main:
    mov r5, r1
    mov r14, r1
    call is_hot
    jz r0, keep
    movi r8, 0
    addi r6, r10, 1024
    ld r7, [r6+0]
    movi r9, -1
scan:
    cmplt r1, r8, r7
    jz r1, done
    movi r1, 3
    shl r1, r8, r1
    add r1, r1, r6
    ld r5, [r1+8]
    call is_hot
    jnz r0, next
    mov r9, r5
next:
    addi r8, r8, 1
    jmp scan
done:
    movi r1, -1
    cmpeq r1, r9, r1
    jnz r1, keep
    mov r0, r9
    ret
keep:
    mov r0, r14
    ret
is_hot:
    ld r2, [r10+0]
    movi r3, 0
ih_loop:
    cmplt r4, r3, r2
    jz r4, ih_no
    movi r0, 3
    shl r0, r3, r0
    add r0, r0, r10
    ld r0, [r0+8]
    cmpeq r0, r0, r5
    jnz r0, ih_yes
    addi r3, r3, 1
    jmp ih_loop
ih_no:
    movi r0, 0
    ret
ih_yes:
    movi r0, 1
    ret
`
	// delegateSrc is the schedule delegate: it scans the process list
	// under its lock and hands the timeslice back to its own thread.
	delegateSrc = `
.name bench-delegate
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
    st [r2+0], r0
    addi r8, r8, 1
    jmp loop
done:
    mov r0, r6
    ret
`
	// encryptSrc XORs the 8 KB at heap offset 0 with encryptKey, one
	// 64-bit word at a time, into the 8 KB at offset 8192.
	encryptSrc = `
.name bench-encrypt
.func main
main:
    mov r2, r10
    addi r3, r10, 8192
    movi r4, 1024
    movi r5, 0x5A5A5A5A
loop:
    ld r6, [r2+0]
    xor r6, r6, r5
    st [r3+0], r6
    addi r2, r2, 8
    addi r3, r3, 8
    addi r4, r4, -1
    jnz r4, loop
    movi r0, 0
    ret
`
)

const (
	encryptKey   = 0x5A5A5A5A
	streamBytes  = 8 << 10
	fileBytes    = 12 << 20
	cacheBlocks  = 1024 // a third of the file: random reads keep missing
	frames       = 128
	vasPages     = 4 * frames // working set four times physical memory
	hotPages     = 8
	identEvery   = 1024 // dispatch ops folded into one simulated-statistics record
	streamPoint  = "stream/0.filter"
	inputBuffers = 8
)

// fixture is one booted kernel with the paper's four grafts installed on
// a client thread: read-ahead on an open 12 MB file, eviction on an
// address space under frame pressure, the client's schedule delegate,
// and the encryption stream filter.
type fixture struct {
	k      *vino.Kernel
	fsys   *vino.FS
	vm     *vino.VMM
	of     *vino.OpenFile
	vas    *vino.VAS
	t      *vino.Thread
	points [4]*vino.GraftPoint // read-ahead, eviction, delegate, stream
	grafts [4]*vino.Installed
}

// bootFixture builds the four grafts with the toolchain, boots a kernel,
// installs them from a client process and then runs body on the client
// thread. It returns when the kernel has run every thread to completion.
func bootFixture(tr *tracer, body func(f *fixture) error) error {
	k := vino.New()
	f := &fixture{k: k}
	f.fsys = vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), cacheBlocks)
	f.fsys.Create("db", fileBytes, vino.Root, false)
	f.vm = vino.NewVMM(k, frames)
	k.EnableScheduleDelegation()
	procs := make([]int64, 64)
	for i := range procs {
		procs[i] = int64(1000 + i)
	}
	k.SetProcessList(procs)
	f.points[3] = k.Grafts.RegisterPoint(&vino.GraftPoint{
		Name:      streamPoint,
		Kind:      vino.Function,
		Privilege: vino.Local,
		Default:   func(t *vino.Thread, args []int64) (int64, error) { return 0, nil },
	})

	tc := vino.ToolchainFor(k)
	var imgs [4]*vino.Image
	for i, src := range []string{readAheadSrc, evictSrc, delegateSrc, encryptSrc} {
		end := tr.begin(spanBuild)
		img, err := tc.Build(src, vino.BuildOptions{})
		end()
		if err != nil {
			return fmt.Errorf("build graft %d: %w", i, err)
		}
		imgs[i] = img
	}

	var fail error
	k.SpawnProcess("client", vino.Root, func(p *vino.Process) {
		t := p.Thread
		f.t = t
		of, err := f.fsys.Open(t, "db")
		if err != nil {
			fail = err
			return
		}
		f.of = of
		f.vas = f.vm.NewVAS(t)
		f.points[0] = of.RAPoint()
		f.points[1] = f.vas.EvictPoint()
		f.points[2] = k.DelegatePoint(t)
		for i, pt := range f.points {
			end := tr.begin(spanInstall)
			g, err := k.Grafts.Install(t, pt.Name, imgs[i], vino.InstallOptions{})
			end()
			if err != nil {
				fail = fmt.Errorf("install %s: %w", pt.Name, err)
				return
			}
			f.grafts[i] = g
		}
		heap := f.grafts[1].VM().Heap()
		binary.LittleEndian.PutUint64(heap[0:], hotPages)
		for i := 0; i < hotPages; i++ {
			binary.LittleEndian.PutUint64(heap[8+8*i:], uint64(i))
		}
		if body != nil {
			fail = body(f)
		}
	})
	if err := k.Run(); err != nil {
		return fmt.Errorf("kernel run: %w", err)
	}
	return fail
}

// blockContent is the file system's deterministic content of block b of
// the first file created on a fresh FS: byte i of the block at LBA l is
// i ^ 131·l ^ i>>6 (fs.Create). The benchmark computes it itself so a
// read is checked against the file, not against the cache.
func blockContent(dst []byte, b int64) {
	for i := range dst {
		dst[i] = byte(int64(i) ^ (b * 131) ^ (int64(i) >> 6))
	}
}

// dispatcher is the dispatch workload's client: a seeded mix of the four
// grafted paths on one fixture.
type dispatcher struct {
	b   *bench
	f   *fixture
	rng *rand.Rand

	nextOff         int64
	buf, want       []byte
	inputs, outputs [inputBuffers][]byte

	// The open simulated-statistics record.
	h                     uint64
	virtNS, steps, cycles int64
	opsInBlock            int
}

func newDispatcher(b *bench, f *fixture, seed int64) *dispatcher {
	d := &dispatcher{
		b: b, f: f,
		rng:  rand.New(rand.NewSource(seed)),
		buf:  make([]byte, vino.BlockSize),
		want: make([]byte, vino.BlockSize),
	}
	// The stream inputs come from the seed; the expected ciphertext is
	// computed here, independently of the graft VM.
	for i := range d.inputs {
		in := make([]byte, streamBytes)
		d.rng.Read(in)
		out := make([]byte, streamBytes)
		for w := 0; w < streamBytes; w += 8 {
			binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(in[w:])^encryptKey)
		}
		d.inputs[i], d.outputs[i] = in, out
	}
	d.nextOff = d.drawBlock() * vino.BlockSize
	return d
}

func (d *dispatcher) drawBlock() int64 { return d.rng.Int63n(fileBytes / vino.BlockSize) }

// vmCounters sums the four graft VMs' instruction and cycle counters.
func (d *dispatcher) vmCounters() (steps, cycles int64) {
	for _, g := range d.f.grafts {
		steps += g.VM().Steps()
		cycles += g.VM().TotalCycles()
	}
	return
}

// pointCounters sums grafted calls, commits and aborts over the four
// points.
func (d *dispatcher) pointCounters() (calls, commits, aborts int64) {
	for _, p := range d.f.points {
		s := p.Stats()
		calls += s.GraftedCalls
		commits += s.Commits
		aborts += s.Aborts
	}
	return
}

// Op kinds, in the order the mix draws them.
const (
	opRead = iota
	opTouch
	opYield
	opEncrypt
	opKinds
)

// op runs dispatch operation i: one of the four grafted paths, drawn
// with equal weights, with its output checks. The paper measures each
// graft on its own path (Tables 3–6) and gives no mix between them, so
// none is weighted above another.
func (d *dispatcher) op(i int) (outcome, error) {
	f, t, tr := d.f, d.f.t, d.b.tr
	v0 := f.k.Clock.Now()
	s0, c0 := d.vmCounters()
	calls0, commits0, aborts0 := d.pointCounters()
	kind := d.rng.Intn(opKinds)
	failed := 0
	switch kind {
	case opRead:
		off := d.nextOff
		d.nextOff = d.drawBlock() * vino.BlockSize
		heap := f.grafts[0].VM().Heap()
		binary.LittleEndian.PutUint64(heap[0:], uint64(d.nextOff))
		binary.LittleEndian.PutUint64(heap[8:], vino.BlockSize)
		binary.LittleEndian.PutUint64(heap[16:], uint64(f.of.FD()))
		end := tr.begin(spanRead)
		n, err := f.of.ReadAt(t, d.buf, off)
		end()
		blockContent(d.want, off/vino.BlockSize)
		if err != nil || n != len(d.buf) || !bytes.Equal(d.buf, d.want) {
			failed = 1
			d.b.wrongf("op %d: read at %d returned %d bytes (err %v) not matching the file", i, off, n, err)
		}
	case opTouch:
		vpn := d.rng.Int63n(vasPages)
		if d.rng.Intn(4) == 0 {
			vpn = d.rng.Int63n(hotPages)
		}
		end := tr.begin(spanTouch)
		err := f.vas.TouchErr(t, vpn)
		end()
		if err != nil {
			failed = 1
			d.b.wrongf("op %d: touch vpn %d: %v", i, vpn, err)
		}
	case opYield:
		end := tr.begin(spanYield)
		t.Yield()
		end()
	case opEncrypt:
		k := d.rng.Intn(inputBuffers)
		heap := f.grafts[3].VM().Heap()
		copy(heap[:streamBytes], d.inputs[k])
		end := tr.begin(spanInvoke)
		_, err := f.points[3].Invoke(t, streamBytes)
		end()
		if err != nil || !bytes.Equal(heap[streamBytes:2*streamBytes], d.outputs[k]) {
			failed = 1
			d.b.wrongf("op %d: encryption output differs from the XOR the benchmark computed (err %v)", i, err)
		}
	}
	calls1, commits1, aborts1 := d.pointCounters()
	if aborts1 != aborts0 || calls1-calls0 != commits1-commits0 || (kind != opTouch && calls1 == calls0) {
		failed = 1
		d.b.wrongf("op %d (kind %d): %d grafted calls, %d commits, %d aborts; every grafted call must commit",
			i, kind, calls1-calls0, commits1-commits0, aborts1-aborts0)
	}

	// Fold the op's simulated statistics into the open record.
	s1, c1 := d.vmCounters()
	virt := int64(f.k.Clock.Now() - v0)
	var w [40]byte
	for j, x := range []uint64{d.h, uint64(kind), uint64(virt), uint64(s1 - s0), uint64(c1 - c0)} {
		binary.LittleEndian.PutUint64(w[8*j:], x)
	}
	h := fnv.New64a()
	h.Write(w[:])
	d.h = h.Sum64()
	d.virtNS += virt
	d.steps += s1 - s0
	d.cycles += c1 - c0
	d.opsInBlock++
	o := outcome{units: 1, attempted: 1, failed: failed, ok: float64(1 - failed), of: 1}
	if d.opsInBlock == identEvery {
		o.ident = fmt.Sprintf("ops %d-%d virt_ns=%d sfi_steps=%d sfi_cycles=%d hash=%016x",
			i+1-identEvery, i, d.virtNS, d.steps, d.cycles, d.h)
		d.h, d.virtNS, d.steps, d.cycles, d.opsInBlock = 0, 0, 0, 0, 0
	}
	return o, nil
}

// counters reads the layer counters the dispatch workload reports as
// deltas over the traced half.
func (d *dispatcher) counters() map[string]float64 {
	f := d.f
	steps, cycles := d.vmCounters()
	calls, commits, aborts := d.pointCounters()
	tx := f.k.Txns.Stats()
	lk := f.k.Locks.Stats()
	return map[string]float64{
		"sfi.steps":            float64(steps),
		"sfi.cycles":           float64(cycles),
		"graft.invocations":    float64(calls),
		"graft.commits":        float64(commits),
		"graft.aborts":         float64(aborts),
		"graft.watchdog_fires": float64(f.k.Grafts.Stats().WatchdogFires),
		"txn.begins":           float64(tx.Begins),
		"txn.commits":          float64(tx.Commits),
		"txn.aborts":           float64(tx.Aborts),
		"txn.undos_run":        float64(tx.UndosRun),
		"lock.acquisitions":    float64(lk.Acquisitions),
		"lock.contentions":     float64(lk.Contentions),
		"lock.timeouts":        float64(lk.Timeouts),
		"vmm.evictions":        float64(f.vm.Stats().Evictions),
		"fault.injected":       float64(f.k.Faults.Fired()),
		"trace.events":         float64(f.k.Trace.Total()),
		"kernel.virt_ms":       float64(f.k.Clock.Now()) / float64(time.Millisecond),
	}
}

// runDispatch measures the paper's normal case: well-behaved grafts on
// the four Table 2 paths, committing on every call.
func runDispatch(b *bench) error {
	// A burst of steal lasts milliseconds and lands inside one call, so
	// the wall-clock p99 tracks the host's steal: it moved by 25% between
	// two sets of runs of the same code. The p90 lies inside the
	// encryption path and moved by under 2%. The p99 is still printed.
	b.tail = 0.90
	// A call lasts tens of µs. Reading the process CPU clock costs a
	// system call per read, and the kernel brings other threads' CPU
	// time up to date only at ticks, so per-call times use the wall
	// clock. Steal arrives in bursts of milliseconds and lands inside
	// few calls, so it leaves the median alone. Throughput still uses
	// the CPU time of the whole window.
	b.wallPerOp = true
	if err := fixtureSetup(b); err != nil {
		return err
	}
	err := bootFixture(b.tr, func(f *fixture) error {
		d := newDispatcher(b, f, b.seed)
		var base map[string]float64
		if err := b.loop(d.op, func() { base = d.counters() }); err != nil {
			return err
		}
		if base != nil {
			for name, v := range d.counters() {
				b.add(name, v-base[name])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if err := b.replayCheck(func(n int) ([]string, error) {
		var got []string
		err := bootFixture(nil, func(f *fixture) error {
			d := newDispatcher(&bench{tr: newTracer(false)}, f, b.seed)
			for i := 0; len(got) < n; i++ {
				o, err := d.op(i)
				if err != nil {
					return err
				}
				if o.ident != "" {
					got = append(got, o.ident)
				}
			}
			return nil
		})
		return got, err
	}, 4); err != nil {
		return err
	}

	wall := b.wallClock()
	b.named = []namedMetric{
		{"dispatch_ops_per_s", "1/s", wall["throughput_per_s"].Value},
		{"dispatch_us_p50", "us", wall["wall_ms_p50"].Value * 1e3},
		{"dispatch_us_p90", "us", wall["wall_ms_tail"].Value * 1e3},
		{"dispatch_us_p99", "us", quantile(b.opWall, 0.99) * 1e3},
		{"dispatch_failed_ratio", "ratio", float64(b.failed) / float64(max(b.attempted, 1))},
	}
	return nil
}
