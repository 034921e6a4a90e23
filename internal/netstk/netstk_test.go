package netstk

import (
	"errors"
	"strings"
	"testing"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/resource"
)

func newTestNet() (*kernel.Kernel, *Net) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true})
	return k, New(k)
}

// httpGraftSrc is a tiny in-kernel HTTP server (Figure 2): read the
// request into the heap at +512, then write the canned response stored
// in the image's data section.
const httpGraftSrc = `
.name http-server
.import net.read
.import net.write
.import net.close
.data "HTTP/1.0 200 OK\r\n\r\nVINO grafted server"
.func main
main:
    mov r6, r1          ; connection id
    ; read the request (discarded, but consumes the stream)
    addi r2, r10, 512
    movi r3, 256
    callk net.read
    ; write the canned 38-byte response from the data section
    mov r1, r6
    mov r2, r10
    movi r3, 38
    callk net.write
    mov r1, r6
    callk net.close
    ret
`

func TestListenConnectServe(t *testing.T) {
	k, n := newTestNet()
	port := n.Listen("tcp", 80)
	var conn *Conn
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall(port.Point().Name, httpGraftSrc, graft.InstallOptions{
			Transfer: resource.Amounts{resource.Memory: 4096},
		}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		var err error
		conn, err = n.Connect(k.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		// Let the worker run.
		for i := 0; i < 20 && !conn.Closed(); i++ {
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	resp := string(conn.Response())
	if !strings.HasPrefix(resp, "HTTP/1.0 200 OK") || !strings.Contains(resp, "VINO grafted server") {
		t.Fatalf("response = %q", resp)
	}
	if !conn.Closed() {
		t.Fatal("connection not closed by handler")
	}
	st := n.Stats()
	if st.Connections != 1 || st.BytesOut == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConnectWithoutListener(t *testing.T) {
	k, n := newTestNet()
	k.SpawnProcess("client", 7, func(p *kernel.Process) {
		if _, err := n.Connect(k.Sched, "tcp", 9999, []byte("x")); !errors.Is(err, ErrNoListener) {
			t.Errorf("Connect = %v, want ErrNoListener", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestListenIdempotent(t *testing.T) {
	_, n := newTestNet()
	a := n.Listen("tcp", 80)
	b := n.Listen("tcp", 80)
	if a != b {
		t.Fatal("double listen created two ports")
	}
	if a.Point().Kind != graft.Event {
		t.Fatal("connection point is not an event point")
	}
}

// TestAbortedHandlerLeavesNoPartialResponse: a handler that writes half
// a response and traps is undone completely.
func TestAbortedHandlerLeavesNoPartialResponse(t *testing.T) {
	k, n := newTestNet()
	port := n.Listen("tcp", 81)
	var conn *Conn
	var g *graft.Installed
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		var err error
		g, err = p.BuildAndInstall(port.Point().Name, `
.name half-writer
.import net.write
.data "PARTIAL"
.func main
main:
    mov r6, r1
    mov r2, r10
    movi r3, 7
    callk net.write
    movi r4, 0
    div r0, r3, r4    ; trap after writing
    ret
`, graft.InstallOptions{Transfer: resource.Amounts{resource.Memory: 4096}})
		if err != nil {
			t.Errorf("install: %v", err)
			return
		}
		conn, err = n.Connect(k.Sched, "tcp", 81, []byte("req"))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := conn.Response(); len(got) != 0 {
		t.Fatalf("partial response leaked: %q", got)
	}
	if !g.Removed() {
		t.Fatal("trapping handler not removed")
	}
	// The undone write released its memory charge.
	if used := g.Account.Used(resource.Memory); used != 0 {
		t.Fatalf("graft account used = %d after abort", used)
	}
}

// TestMultipleHandlersShareConnection: two handlers run in install
// order; both contribute to the response.
func TestMultipleHandlersShareConnection(t *testing.T) {
	k, n := newTestNet()
	port := n.Listen("udp", 53)
	mk := func(tag string, order int) string {
		return `
.name h` + tag + `
.import net.write
.data "` + tag + `"
.func main
main:
    mov r2, r10
    movi r3, 1
    callk net.write
    ret
`
	}
	var conn *Conn
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		opts := func(order int) graft.InstallOptions {
			return graft.InstallOptions{
				Order:    order,
				Transfer: resource.Amounts{resource.Memory: 64},
			}
		}
		if _, err := p.BuildAndInstall(port.Point().Name, mk("B", 2), opts(2)); err != nil {
			t.Errorf("install B: %v", err)
			return
		}
		if _, err := p.BuildAndInstall(port.Point().Name, mk("A", 1), opts(1)); err != nil {
			t.Errorf("install A: %v", err)
			return
		}
		var err error
		conn, err = n.Connect(k.Sched, "udp", 53, []byte("q"))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(conn.Response()); got != "AB" {
		t.Fatalf("response = %q, want handlers in order AB", got)
	}
}

// TestHandlerCannotWriteBeyondQuota: a response larger than the graft's
// memory grant aborts cleanly.
func TestHandlerCannotWriteBeyondQuota(t *testing.T) {
	k, n := newTestNet()
	port := n.Listen("tcp", 82)
	var conn *Conn
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall(port.Point().Name, `
.name flooder
.import net.write
.data "XXXXXXXXXXXXXXXX"
.func main
main:
    mov r6, r1
loop:
    mov r1, r6
    mov r2, r10
    movi r3, 16
    callk net.write
    jmp loop
`, graft.InstallOptions{Transfer: resource.Amounts{resource.Memory: 256}}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		var err error
		conn, err = n.Connect(k.Sched, "tcp", 82, []byte("q"))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The flood aborted; the transactional undo removed every byte.
	if got := len(conn.Response()); got != 0 {
		t.Fatalf("flooded %d bytes past quota", got)
	}
}

func TestReadConsumesStream(t *testing.T) {
	k, n := newTestNet()
	port := n.Listen("tcp", 83)
	var conn *Conn
	k.SpawnProcess("server", 7, func(p *kernel.Process) {
		// Echo server: read up to 8 bytes, write them back, repeat until
		// empty.
		if _, err := p.BuildAndInstall(port.Point().Name, `
.name echo
.import net.read
.import net.write
.func main
main:
    mov r6, r1
loop:
    mov r1, r6
    addi r2, r10, 0
    movi r3, 8
    callk net.read
    jz r0, done
    mov r1, r6
    addi r2, r10, 0
    mov r3, r0
    callk net.write
    jmp loop
done:
    ret
`, graft.InstallOptions{Transfer: resource.Amounts{resource.Memory: 4096}}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		var err error
		conn, err = n.Connect(k.Sched, "tcp", 83, []byte("hello grafted world"))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for i := 0; i < 30; i++ {
			p.Thread.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := string(conn.Response()); got != "hello grafted world" {
		t.Fatalf("echo = %q", got)
	}
}
