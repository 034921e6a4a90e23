package vino_test

// Full-system integration: one kernel, four concurrent processes mixing
// well-behaved grafts (read-ahead, HTTP service, page eviction) with a
// rogue repeatedly installing misbehaving ones. The kernel must survive
// everything, keep serving, and keep its books balanced — the paper's
// thesis exercised end-to-end.

import (
	"strings"
	"testing"
	"time"

	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/netstk"
	"vino/internal/resource"
	"vino/internal/trace"
	"vino/internal/vmm"
)

func TestFullSystemSurvivesMixedWorkload(t *testing.T) {
	// A deep flight recorder: hundreds of evictions would otherwise
	// push the graft lifecycle events out of the default 256-event ring.
	k := kernel.New(kernel.Config{TraceDepth: 8192})
	fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 2048)
	v := vmm.New(k, 200) // fewer frames than the 256-page mapping: guarantees eviction pressure
	n := netstk.New(k)

	fsys.Create("db", 4<<20, 100, false)
	fsys.Create("shared", 1<<20, 100, true)
	port := n.Listen("tcp", 80)

	var (
		dbReads      int
		webResponses int
		rogueAborts  int
		vmDone       bool
	)

	// Process 1: the database-style reader with an announce-next graft.
	k.SpawnProcess("db", 100, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "db")
		if err != nil {
			t.Errorf("db open: %v", err)
			return
		}
		g, err := p.BuildAndInstall(of.RAPoint().Name, `
.name ra
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]
    ld r4, [r10+8]
    jz r4, done
    ld r1, [r10+16]
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
done:
    ret
`, graft.InstallOptions{})
		if err != nil {
			t.Errorf("db graft: %v", err)
			return
		}
		heap := g.VM().Heap()
		poke := func(off int, val int64) {
			for i := 0; i < 8; i++ {
				heap[off+i] = byte(uint64(val) >> (8 * i))
			}
		}
		poke(16, int64(of.FD()))
		buf := make([]byte, vfs.BlockSize)
		state := int64(7)
		nBlocks := of.File().Blocks()
		next := func() int64 {
			state = (state*1103515245 + 12345) & 0x7FFFFFFF
			return state % nBlocks
		}
		cur := next()
		for i := 0; i < 40; i++ {
			nb := next()
			poke(0, nb*vfs.BlockSize)
			poke(8, vfs.BlockSize)
			if _, err := of.ReadAt(p.Thread, buf, cur*vfs.BlockSize); err != nil {
				t.Errorf("db read: %v", err)
				return
			}
			dbReads++
			cur = nb
			p.Thread.Charge(200 * time.Microsecond)
		}
	})

	// Process 2: the in-kernel web server plus its own client traffic.
	k.SpawnProcess("web", 101, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall(port.Point().Name, `
.name www
.import net.read
.import net.write
.import net.close
.data "HTTP/1.0 200 OK\r\n\r\nok"
.func main
main:
    mov r6, r1
    addi r2, r10, 256
    movi r3, 128
    callk net.read
    mov r1, r6
    mov r2, r10
    movi r3, 21
    callk net.write
    mov r1, r6
    callk net.close
    ret
`, graft.InstallOptions{Transfer: resource.Amounts{resource.Memory: 8 << 10}}); err != nil {
			t.Errorf("web graft: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			conn, err := n.Connect(k.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			for j := 0; j < 30 && !conn.Closed(); j++ {
				p.Thread.Yield()
			}
			if strings.HasPrefix(string(conn.Response()), "HTTP/1.0 200") {
				webResponses++
			}
			p.Thread.Sleep(3 * time.Millisecond)
		}
	})

	// Process 3: a memory-pressure app with a file-backed mapping and an
	// eviction graft protecting its hot pages.
	k.SpawnProcess("vm", 102, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "shared")
		if err != nil {
			t.Errorf("vm open: %v", err)
			return
		}
		vas := v.NewVAS(p.Thread)
		if err := vas.Map(0, of.File().Blocks(), of.Pager()); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		for round := 0; round < 3; round++ {
			for i := int64(0); i < of.File().Blocks(); i++ {
				vas.Touch(p.Thread, i)
			}
		}
		vmDone = true
	})

	// Process 4: the rogue. Installs a different misbehaving graft on
	// its own file every round; every one must be contained.
	k.SpawnProcess("rogue", 103, func(p *kernel.Process) {
		fsys.Create("rogue-file", 1<<20, 103, false)
		of, err := fsys.Open(p.Thread, "rogue-file")
		if err != nil {
			t.Errorf("rogue open: %v", err)
			return
		}
		of.RAPoint().Watchdog = 30 * time.Millisecond
		rogues := []struct {
			src string
			// aborted: the graft fails and is removed. A contained wild
			// store is NOT a failure — SFI masks it into the graft's own
			// segment and the invocation commits harmlessly.
			aborted bool
		}{
			{".name spin\n.func main\nmain:\n jmp main\n", true},
			{".name trap\n.func main\nmain:\n movi r9, 0\n div r0, r0, r9\n ret\n", true},
			{".name wild\n.func main\nmain:\n movi r1, -99999\n st [r1+0], r1\n movi r0, 0\n ret\n", false},
			{".name greedy\n.import vino.kheap_alloc\n.func main\nmain:\n movi r1, 8192\nloop:\n callk vino.kheap_alloc\n jmp loop\n", true},
		}
		buf := make([]byte, 128)
		for _, r := range rogues {
			g, err := p.BuildAndInstall(of.RAPoint().Name, r.src, graft.InstallOptions{})
			if err != nil {
				t.Errorf("rogue install: %v", err)
				return
			}
			kmem := g.VM().KernelMemory()
			for i := range kmem {
				kmem[i] = 0x99
			}
			if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
				t.Errorf("rogue read: %v", err)
				return
			}
			for i, b := range kmem {
				if b != 0x99 {
					t.Errorf("rogue %q touched kernel memory at %d", r.src[:12], i)
					return
				}
			}
			if g.Removed() != r.aborted {
				t.Errorf("rogue graft %q: removed=%v, want %v", r.src[:12], g.Removed(), r.aborted)
				return
			}
			if !r.aborted {
				k.Grafts.Remove(g) // make room for the next rogue
			}
			rogueAborts++
		}
	})

	if err := k.Run(); err != nil {
		t.Fatalf("kernel run: %v", err)
	}

	if dbReads != 40 {
		t.Errorf("db finished %d/40 reads", dbReads)
	}
	if webResponses != 10 {
		t.Errorf("web served %d/10 responses", webResponses)
	}
	if !vmDone {
		t.Error("vm process did not finish")
	}
	if rogueAborts != 4 {
		t.Errorf("rogue containment: %d/4", rogueAborts)
	}
	// Books balanced: every transaction begun was committed or aborted,
	// every lock acquisition matched by a release.
	ts := k.Txns.Stats()
	if ts.Begins != ts.Commits+ts.Aborts {
		t.Errorf("transactions leaked: %d begun, %d committed, %d aborted", ts.Begins, ts.Commits, ts.Aborts)
	}
	ls := k.Locks.Stats()
	if ls.Releases != ls.Acquisitions {
		t.Errorf("locks leaked: %d acquired, %d released", ls.Acquisitions, ls.Releases)
	}
	// The kernel's frame pool is consistent.
	if v.FreeFrames() < 0 || v.FreeFrames() > 200 {
		t.Errorf("frame pool corrupt: %d free", v.FreeFrames())
	}
	// The flight recorder saw the rogue's aborts and removals.
	if len(k.Trace.Filter(trace.GraftAbort)) < 3 {
		t.Errorf("trace recorded %d graft aborts, want >= 3", len(k.Trace.Filter(trace.GraftAbort)))
	}
	if len(k.Trace.Filter(trace.GraftInstall)) < 6 {
		t.Errorf("trace recorded %d installs", len(k.Trace.Filter(trace.GraftInstall)))
	}
	if len(k.Trace.Filter(trace.Eviction)) == 0 {
		t.Error("trace recorded no evictions despite memory pressure")
	}
	if t.Failed() {
		for _, l := range k.Log() {
			t.Log(l)
		}
	}
}

// TestFullSystemDeterminism: two identical runs of a mixed workload
// produce identical virtual end times and statistics — the property
// that makes every experiment in this repository reproducible.
func TestFullSystemDeterminism(t *testing.T) {
	run := func() (time.Duration, int64, int64) {
		k := kernel.New(kernel.Config{})
		fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 512)
		fsys.Create("f", 2<<20, 1, true)
		for pi := 0; pi < 3; pi++ {
			k.SpawnProcess("p", graft.UID(pi+1), func(p *kernel.Process) {
				of, err := fsys.Open(p.Thread, "f")
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				for i := int64(0); i < 30; i++ {
					off := (i*37 + int64(p.UID)*11) % (of.File().Blocks() - 1) * vfs.BlockSize
					if _, err := of.ReadAt(p.Thread, buf, off); err != nil {
						t.Error(err)
						return
					}
					p.Thread.Charge(100 * time.Microsecond)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		st := fsys.Stats()
		return k.Clock.Now(), st.CacheHits, st.SyncStalls
	}
	t1, h1, s1 := run()
	t2, h2, s2 := run()
	if t1 != t2 || h1 != h2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", t1, h1, s1, t2, h2, s2)
	}
}
