package fs

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"vino/internal/crash"
	"vino/internal/graft"
	"vino/internal/kernel"
)

// TestSharedImagesNeverMutated: checkpoint images share unchanged files
// and blocks with their predecessor, so no later capture, restore or
// write may reach an older image. Three images A, B and C are captured
// the way the checkpoint ring captures them — each from the newest,
// including across a restore of B — and restoring A at the end must
// give A's contents at capture time. The test keeps the images itself:
// the manager's restore drops every entry but the restored one, so A
// would not survive the restore of B in the manager's ring.
func TestSharedImagesNeverMutated(t *testing.T) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true, CheckpointEvery: time.Hour})
	fsys := New(k, NewDisk(FujitsuM2694ESA()), 64)
	f := fsys.Create("db", 4*BlockSize, graft.Root, false)
	write := func(b int64, v byte) {
		runProc(t, k, graft.Root, func(p *kernel.Process) {
			of, err := fsys.Open(p.Thread, "db")
			if err != nil {
				t.Error(err)
				return
			}
			defer of.Close()
			if _, err := of.WriteAt(p.Thread, bytes.Repeat([]byte{v}, BlockSize), b*BlockSize); err != nil {
				t.Error(err)
			}
		})
	}
	contents := func() []byte {
		var out []byte
		for b := int64(0); b < f.Blocks(); b++ {
			out = append(out, f.blockContent(b)...)
		}
		return out
	}
	type image struct {
		snap any
		gen  uint64
	}
	var ring []image
	capture := func() any {
		var prev any
		var since uint64
		if n := len(ring); n > 0 {
			prev, since = ring[n-1].snap, ring[n-1].gen
		}
		img := image{fsys.CrashSnapshot(prev, since), k.Crash.Gen()}
		k.Checkpoint() // advances the generation past img.gen
		ring = append(ring, img)
		return img.snap
	}

	write(0, 1)
	write(1, 1)
	a := capture()
	wantA := contents()

	write(0, 2)
	b := capture()
	wantB := contents()
	if got := SnapshotBytes(b); got != BlockSize {
		t.Errorf("B copied %d bytes, want one block (%d)", got, BlockSize)
	}

	write(1, 3)
	fsys.CrashRestore(b)
	if !bytes.Equal(contents(), wantB) {
		t.Fatal("restoring B did not give B's contents")
	}
	write(0, 4)
	write(2, 4)
	c := capture()
	if got := SnapshotBytes(c); got != 2*BlockSize {
		t.Errorf("C copied %d bytes, want two blocks (%d)", got, 2*BlockSize)
	}
	if len(ring) != 3 {
		t.Fatalf("ring holds %d images, want 3", len(ring))
	}

	fsys.CrashRestore(a)
	if !bytes.Equal(contents(), wantA) {
		t.Error("restoring A after B and C shared its blocks did not give A's contents")
	}
	fsys.CrashRestore(b)
	if !bytes.Equal(contents(), wantB) {
		t.Error("restoring B a second time did not give B's contents")
	}
}

// TestCrashImportRejectsBadBlocks: an on-disk image naming a block
// outside its file, or a block of the wrong size, is refused. Writes
// never produce either, and checkpoint images index blocks by number.
func TestCrashImportRejectsBadBlocks(t *testing.T) {
	for _, c := range []struct {
		block int64
		size  int
	}{{-1, BlockSize}, {4, BlockSize}, {0, 10}} {
		ex := &fsExport{Files: []fileExport{{
			Name: "db", Size: 4 * BlockSize,
			Dirty: []blockExport{{Block: c.block, Data: make([]byte, c.size)}},
		}}}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ex); err != nil {
			t.Fatal(err)
		}
		_, fsys := newTestFS(8)
		if err := fsys.CrashImport(buf.Bytes()); err == nil {
			t.Errorf("CrashImport accepted block %d of %d bytes in a 4-block file", c.block, c.size)
		}
	}
}

// TestRestoredBlocksCopyOnWrite: a restore installs the image's block
// slices as the live ones, so a write after the restore must replace a
// block rather than write into it. Restoring the same image again —
// whole-kernel or domain-scoped — must give the image's bytes.
func TestRestoredBlocksCopyOnWrite(t *testing.T) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true, CheckpointEvery: time.Hour})
	fsys := New(k, NewDisk(FujitsuM2694ESA()), 64)
	f := fsys.Create("db", 4*BlockSize, graft.Root, false)
	write := func(owner string, b int64, v byte) {
		runProc(t, k, graft.Root, func(p *kernel.Process) {
			prev := crash.SetOwner(p.Thread, owner)
			defer crash.SetOwner(p.Thread, prev)
			of, err := fsys.Open(p.Thread, "db")
			if err != nil {
				t.Error(err)
				return
			}
			defer of.Close()
			// A partial write: the rest of the block comes from the
			// current (restored) block, which must not change.
			if _, err := of.WriteAt(p.Thread, bytes.Repeat([]byte{v}, 100), b*BlockSize+10); err != nil {
				t.Error(err)
			}
		})
	}
	contents := func() []byte {
		var out []byte
		for b := int64(0); b < f.Blocks(); b++ {
			out = append(out, f.blockContent(b)...)
		}
		return out
	}

	write("", 0, 1)
	write("", 1, 1)
	since := k.Crash.Gen()
	img := fsys.CrashSnapshot(nil, 0)
	k.Checkpoint()
	want := contents()

	fsys.CrashRestore(img)
	write("", 0, 2)
	write("", 1, 2)
	fsys.CrashRestore(img)
	if !bytes.Equal(contents(), want) {
		t.Fatal("a write after a restore reached the image")
	}

	write("g", 0, 3)
	if n := fsys.CrashRestoreDomain("g", img, since); n != BlockSize {
		t.Fatalf("domain restore reverted %d bytes, want one block", n)
	}
	if !bytes.Equal(contents(), want) {
		t.Fatal("domain restore did not give the image's bytes")
	}
	write("g", 0, 4)
	fsys.CrashRestoreDomain("g", img, since)
	if !bytes.Equal(contents(), want) {
		t.Error("a write after a domain restore reached the image")
	}
}

// TestCrashAuditChecksCapturedBlocks: the capture-time audit checks the
// blocks the latest capture took from live state, and only those — a
// block an earlier capture took was audited then. Fsck still checks
// every block.
func TestCrashAuditChecksCapturedBlocks(t *testing.T) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true, CheckpointEvery: time.Hour})
	fsys := New(k, NewDisk(FujitsuM2694ESA()), 64)
	f := fsys.Create("db", 4*BlockSize, graft.Root, false)
	f.dirty[2] = make([]byte, 10) // damage no write path can produce
	k.Checkpoint()
	if bad := fsys.CrashAudit(); len(bad) != 1 || bad[0] != `file "db": dirty block 2 has 10 bytes` {
		t.Fatalf("audit after capturing the short block = %q", bad)
	}
	k.Checkpoint() // nothing stamped since: the capture takes no block
	if bad := fsys.CrashAudit(); len(bad) != 0 {
		t.Errorf("audit of a capture that took no block = %q, want none", bad)
	}
	if bad := fsys.Fsck(); len(bad) != 1 {
		t.Errorf("Fsck = %q, want the short block", bad)
	}
}

// TestCaptureAgainstOlderImage: a capture normally follows the one
// whose image it reuses, and then reads only the blocks stamped since
// that capture. Captured against an older image, it must still take
// every block stamped since that image, including blocks an
// intervening capture already took.
func TestCaptureAgainstOlderImage(t *testing.T) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true, CheckpointEvery: time.Hour})
	fsys := New(k, NewDisk(FujitsuM2694ESA()), 64)
	f := fsys.Create("db", 4*BlockSize, graft.Root, false)
	write := func(b int64, v byte) {
		runProc(t, k, graft.Root, func(p *kernel.Process) {
			of, err := fsys.Open(p.Thread, "db")
			if err != nil {
				t.Error(err)
				return
			}
			defer of.Close()
			if _, err := of.WriteAt(p.Thread, bytes.Repeat([]byte{v}, BlockSize), b*BlockSize); err != nil {
				t.Error(err)
			}
		})
	}
	contents := func() []byte {
		var out []byte
		for b := int64(0); b < f.Blocks(); b++ {
			out = append(out, f.blockContent(b)...)
		}
		return out
	}
	write(0, 1)
	genA := k.Crash.Gen()
	a := fsys.CrashSnapshot(nil, 0)
	k.Checkpoint()
	write(1, 2)
	k.Checkpoint() // takes block 1
	write(2, 3)
	want := contents()
	c := fsys.CrashSnapshot(a, genA)
	if got := SnapshotBytes(c); got != 2*BlockSize {
		t.Errorf("capture against the older image took %d bytes, want blocks 1 and 2 (%d)", got, 2*BlockSize)
	}
	write(1, 4)
	fsys.CrashRestore(c)
	if !bytes.Equal(contents(), want) {
		t.Error("restoring the capture did not give the contents at capture time")
	}
}
