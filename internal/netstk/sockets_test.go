package netstk

import (
	"errors"
	"testing"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/resource"
)

// holdGraftSrc reads the request and returns without closing, so the
// accept-time socket charge stays outstanding until the driver reaps
// the connection.
const holdGraftSrc = `
.name hold-server
.import net.read
.func main
main:
    mov r6, r1
    addi r2, r10, 512
    movi r3, 64
    callk net.read
    ret
`

// TestAcceptSocketDenial exercises the §3.2 denial path at the network
// edge: a handler whose account runs out of Sockets budget fails the
// accept with a LimitError, and reaping a held connection returns the
// budget.
func TestAcceptSocketDenial(t *testing.T) {
	k, n := newTestNet()
	n.BillSockets = true
	port := n.Listen("tcp", 80)
	var g *graft.Installed
	var conns []*Conn
	var denied error
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		var err error
		g, err = p.BuildAndInstall(port.Point().Name, holdGraftSrc, graft.InstallOptions{
			Transfer: resource.Amounts{resource.Sockets: 2},
		})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		for i := 0; i < 2; i++ {
			c, err := n.Connect(k.Sched, "tcp", 80, []byte("req"))
			if err != nil {
				t.Errorf("Connect %d: %v", i, err)
				return
			}
			conns = append(conns, c)
			p.Thread.Yield()
		}
		// Both sockets held: the third accept must be denied.
		if _, err := n.Connect(k.Sched, "tcp", 80, []byte("req")); err == nil {
			t.Error("third accept succeeded past the Sockets limit")
		} else {
			denied = err
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var le *resource.LimitError
	if !errors.As(denied, &le) || le.Kind != resource.Sockets {
		t.Fatalf("denial = %v, want Sockets LimitError", denied)
	}
	if got := n.Stats().SocketDenials; got != 1 {
		t.Fatalf("SocketDenials = %d, want 1", got)
	}
	if used := g.Account.Used(resource.Sockets); used != 2 {
		t.Fatalf("held sockets = %d, want 2", used)
	}
	// Reaping the connections returns the budget.
	for _, c := range conns {
		n.Teardown(c)
	}
	if used := g.Account.Used(resource.Sockets); used != 0 {
		t.Fatalf("sockets after teardown = %d, want 0", used)
	}
}

// TestCloseReleasesSocket verifies a handler that closes its connection
// gives the socket back, so a serving loop never exhausts its budget.
func TestCloseReleasesSocket(t *testing.T) {
	k, n := newTestNet()
	n.BillSockets = true
	port := n.Listen("tcp", 80)
	var g *graft.Installed
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		var err error
		g, err = p.BuildAndInstall(port.Point().Name, httpGraftSrc, graft.InstallOptions{
			Transfer: resource.Amounts{
				resource.Sockets: 1,
				resource.Memory:  4096,
			},
		})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		for i := 0; i < 5; i++ {
			c, err := n.Connect(k.Sched, "tcp", 80, []byte("GET /\r\n\r\n"))
			if err != nil {
				t.Errorf("Connect %d: %v", i, err)
				return
			}
			for w := 0; w < 20 && !c.Closed(); w++ {
				p.Thread.Yield()
			}
			if !c.Closed() {
				t.Errorf("conn %d never closed", i)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if used := g.Account.Used(resource.Sockets); used != 0 {
		t.Fatalf("sockets after serving = %d, want 0", used)
	}
	if got := n.Stats().SocketDenials; got != 0 {
		t.Fatalf("SocketDenials = %d, want 0", got)
	}
}
