package fs

// An in-kernel file server: the paper's §3.5 motivation was dropping
// whole services (HTTP, NFS) into the kernel as event grafts. This test
// composes two subsystems through the graft-callable interface: a
// connection-event graft on a UDP port serves file contents read via
// fs.read — with the permission checks riding on the *installer's*
// identity, not the requester's.

import (
	"testing"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/netstk"
	"vino/internal/resource"
)

// fileServerSrc: on each connection (request = anything), read the
// first 32 bytes of the file whose descriptor is parked at heap+0 and
// send them back.
const fileServerSrc = `
.name nfs-lite
.import fs.read
.import net.write
.import net.close
.func main
main:
    mov r6, r1          ; connection id
    ; fs.read(fd, off, ptr, len)
    ld r1, [r10+0]      ; fd
    movi r2, 0          ; offset
    addi r3, r10, 64    ; destination in our heap
    movi r4, 32         ; length
    callk fs.read
    ; r0 = bytes read; send them
    mov r4, r0
    mov r1, r6
    addi r2, r10, 64
    mov r3, r4
    callk net.write
    mov r1, r6
    callk net.close
    ret
`

func TestInKernelFileServer(t *testing.T) {
	k, fsys := newTestFS(256)
	n := netstk.New(k)
	f := fsys.Create("export", 4*BlockSize, 50, false) // owned by uid 50
	port := n.Listen("udp", 2049)

	var served []byte
	k.SpawnProcess("nfsd", 50, func(p *kernel.Process) {
		g, err := p.BuildAndInstall(port.Point().Name, fileServerSrc, graft.InstallOptions{
			Transfer: resource.Amounts{resource.Memory: 8 << 10},
		})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		of, err := fsys.Open(p.Thread, "export")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		poke64(g.VM().Heap(), 0, int64(of.FD()))
		conn, err := n.Connect(k.Sched, "udp", 2049, []byte("READ export"))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < 60 && !conn.Closed(); i++ {
			p.Thread.Sleep(time.Millisecond) // the worker pays disk latency
		}
		served = conn.Response()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(served) != 32 {
		t.Fatalf("served %d bytes, want 32", len(served))
	}
	want := f.blockContent(0)[:32]
	for i := range want {
		if served[i] != want[i] {
			t.Fatalf("served wrong data at byte %d", i)
		}
	}
}

// TestFileServerPermissionRidesOnInstaller: the same server installed by
// a user who cannot read the file aborts on fs.read — the graft runs
// "with the user identity of the process that installs it" (§3.3).
func TestFileServerPermissionRidesOnInstaller(t *testing.T) {
	k, fsys := newTestFS(256)
	n := netstk.New(k)
	fsys.Create("secret", 4*BlockSize, 50, false) // owned by 50
	port := n.Listen("udp", 2049)

	var fd int
	k.SpawnProcess("owner", 50, func(p *kernel.Process) {
		of, err := fsys.Open(p.Thread, "secret")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		fd = of.FD()
		for i := 0; i < 60; i++ {
			p.Thread.Yield()
		}
	})
	var conn *netstk.Conn
	var g *graft.Installed
	k.SpawnProcess("imposter", 66, func(p *kernel.Process) {
		p.Thread.Yield() // let the owner open first
		var err error
		g, err = p.BuildAndInstall(port.Point().Name, fileServerSrc, graft.InstallOptions{
			Transfer: resource.Amounts{resource.Memory: 8 << 10},
		})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		poke64(g.VM().Heap(), 0, int64(fd))
		conn, err = n.Connect(k.Sched, "udp", 2049, []byte("READ secret"))
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < 40; i++ {
			p.Thread.Sleep(time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(conn.Response()) != 0 {
		t.Fatalf("imposter's server leaked %d bytes of a foreign file", len(conn.Response()))
	}
	if !g.Removed() {
		t.Fatal("imposter's handler survived the permission failure")
	}
}

// TestFSReadCallableBounds: bad lengths and out-of-segment pointers are
// rejected without leaking.
func TestFSReadCallableBounds(t *testing.T) {
	k, fsys := newTestFS(64)
	fsys.Create("data", 2*BlockSize, 7, false)
	runProc(t, k, 7, func(p *kernel.Process) {
		of, _ := fsys.Open(p.Thread, "data")
		// A graft passing a kernel address as the destination.
		g, err := p.BuildAndInstall(of.RAPoint().Name, `
.name exfil
.import fs.read
.func main
main:
    ld r1, [r10+0]
    movi r2, 0
    movi r3, 0     ; kernel address!
    movi r4, 32
    callk fs.read
    ret
`, graft.InstallOptions{})
		if err != nil {
			t.Fatal(err)
		}
		poke64(g.VM().Heap(), 0, int64(of.FD()))
		buf := make([]byte, 8)
		if _, err := of.ReadAt(p.Thread, buf, 0); err != nil {
			t.Fatal(err)
		}
		if !g.Removed() {
			t.Error("exfiltrating graft survived")
		}
	})
}
