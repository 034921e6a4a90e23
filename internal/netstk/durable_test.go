package netstk

import (
	"strings"
	"testing"
	"time"

	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/resource"
)

// TestDurableRestoreListenersAndGrafts is the full-instance reboot the
// fleet driver depends on: a kernel serves traffic through a grafted
// listener, checkpoints to disk, and a freshly built kernel imports the
// manifest. The listener set, the installed graft (re-linked through
// the pending-import path, since the graft importer runs before the
// network stack re-creates its points), its account limits and the
// network counters must all come back — and the restored graft must
// still serve.
func TestDurableRestoreListenersAndGrafts(t *testing.T) {
	dir := t.TempDir()
	mk := func() (*kernel.Kernel, *Net) {
		k := kernel.New(kernel.Config{
			ZeroTxnCosts:    true,
			CheckpointEvery: time.Hour,
			CheckpointDir:   dir,
		})
		return k, New(k)
	}
	k1, n1 := mk()
	port := n1.Listen("tcp", 80)
	k1.SpawnProcess("server", 7, func(p *kernel.Process) {
		if _, err := p.BuildAndInstall(port.Point().Name, httpGraftSrc, graft.InstallOptions{
			Transfer: resource.Amounts{resource.Memory: 4096},
		}); err != nil {
			t.Errorf("install: %v", err)
			return
		}
		c, err := n1.Connect(k1.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		for i := 0; i < 20 && !c.Closed(); i++ {
			p.Thread.Yield()
		}
	})
	if err := k1.Run(); err != nil {
		t.Fatal(err)
	}
	k1.Checkpoint()
	if err := k1.Crash.PersistErr(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	connsBefore := n1.Stats().Connections
	lockStats := k1.Locks.Stats()

	// "Reboot": fresh kernel, fresh subsystems, import the manifest.
	k2, n2 := mk()
	if _, err := k2.RestoreFromDisk(); err != nil {
		t.Fatalf("RestoreFromDisk: %v", err)
	}
	if _, err := k2.Grafts.Lookup("tcp/80.connection"); err != nil {
		t.Fatalf("restored listener point: %v", err)
	}
	p2 := n2.Listen("tcp", 80) // must return the restored port, not a new one
	hs := p2.Point().Handlers()
	if len(hs) != 1 {
		t.Fatalf("restored handlers = %d, want 1", len(hs))
	}
	g := hs[0]
	if g.Image.Name != "http-server" || g.Owner != 7 {
		t.Errorf("restored graft = %s owner %d", g.Image.Name, g.Owner)
	}
	if lim := g.Account.Limit(resource.Memory); lim != 4096 {
		t.Errorf("restored account memory limit = %d, want 4096", lim)
	}
	if got := n2.Stats().Connections; got != connsBefore {
		t.Errorf("restored connection count = %d, want %d", got, connsBefore)
	}
	if got := k2.Locks.Stats(); got.Acquisitions != lockStats.Acquisitions {
		t.Errorf("restored lock acquisitions = %d, want %d", got.Acquisitions, lockStats.Acquisitions)
	}

	// The re-linked graft still serves traffic on the rebooted instance.
	var conn *Conn
	k2.SpawnProcess("client", 7, func(p *kernel.Process) {
		var err error
		conn, err = n2.Connect(k2.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
		if err != nil {
			t.Errorf("Connect after restore: %v", err)
			return
		}
		for i := 0; i < 20 && !conn.Closed(); i++ {
			p.Thread.Yield()
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if resp := string(conn.Response()); !strings.Contains(resp, "VINO grafted server") {
		t.Fatalf("response after restore = %q", resp)
	}
}
