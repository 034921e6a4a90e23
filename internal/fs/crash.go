package fs

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"time"

	"vino/internal/graft"
)

// Crash checkpoint/restore for the file system. The durable image —
// the namespace, file contents (dirty blocks), descriptor table and
// counters — is restored exactly; the volatile buffer cache and
// read-ahead machinery come back empty, as after a reboot. Files
// created and descriptors opened after the checkpoint vanish; their
// stale handles fail closed.
//
// Images share state with their predecessor and with the live file
// system: a file with no write since the previous capture reuses that
// capture's fileSnap outright, and a written file shares the
// predecessor's block table except for the chunks holding blocks
// stamped since. Block slices are never written in place — WriteAt
// builds a new slice for every write, CrashImport installs freshly
// decoded ones — so a capture takes the live slice itself and a
// restore installs the image's slice itself; neither copies block
// bytes.

// blockChunk is the number of block slots in one chunk of a fileSnap's
// block table.
const blockChunk = 16

// fileSnap is one file's image: a block table indexed by block number,
// nil for pristine blocks. The table is split into chunks of blockChunk
// slots, nil for an all-pristine chunk, and images share chunks: a
// capture clones the short chunk index and copies only the chunks
// holding blocks stamped since its predecessor, so it costs O(blocks
// written), not a slot per block of the file. Writes keep every dirty
// block inside the file, and CrashImport rejects any other.
type fileSnap struct {
	file   *File
	chunks [][][]byte
}

// block returns block b's slice in the image, nil when pristine.
func (fsn *fileSnap) block(b int64) []byte {
	if c := fsn.chunks[b/blockChunk]; c != nil {
		return c[b%blockChunk]
	}
	return nil
}

type ofSnap struct {
	of       *OpenFile
	raWindow int64
	queue    []int64
	lastOff  int64
	lastLen  int64
	haveLast bool

	reads, cacheHits, syncStalls int64
	prefetchUsed, prefetchQueued int64
	stallTime                    time.Duration
}

type fsSnap struct {
	files   map[string]*fileSnap
	dirs    map[string]bool
	fds     map[int]*ofSnap
	nextFD  int
	nextLBA int64
	stats   Stats
	// copied is the block payload this capture took from live state
	// rather than shared with its predecessor (see SnapshotBytes).
	copied int64
}

// capturedBlock is one block a capture took from live state, kept for
// the audit that follows the capture.
type capturedBlock struct {
	file  *File
	block int64
	data  []byte
}

// CrashName implements crash.Snapshotter.
func (fs *FS) CrashName() string { return "fs" }

// snapFDs deep-copies the descriptor table. It is copied whole on every
// capture: the table is bounded by open descriptors, not file data.
func (fs *FS) snapFDs() map[int]*ofSnap {
	fds := make(map[int]*ofSnap, len(fs.fdTable))
	for fd, of := range fs.fdTable {
		fds[fd] = &ofSnap{
			of:             of,
			raWindow:       of.RAWindow,
			queue:          append([]int64(nil), of.queue...),
			lastOff:        of.lastOff,
			lastLen:        of.lastLen,
			haveLast:       of.haveLast,
			reads:          of.Reads,
			cacheHits:      of.CacheHits,
			syncStalls:     of.SyncStalls,
			prefetchUsed:   of.PrefetchUsed,
			prefetchQueued: of.PrefetchQueued,
			stallTime:      of.StallTime,
		}
	}
	return fds
}

func (fs *FS) snapDirs() map[string]bool {
	dirs := make(map[string]bool, len(fs.dirs))
	for d := range fs.dirs {
		dirs[d] = true
	}
	return dirs
}

// CrashSnapshot implements crash.Snapshotter. Only blocks written (and
// files created) after sinceGen are taken from live state; everything
// else is shared with prev, so the capture costs O(state changed). The
// small volatile parts — directory set, descriptor table, counters —
// mutate on nearly every operation and are copied whole. The blocks
// taken are listed for CrashAudit.
func (fs *FS) CrashSnapshot(prev any, sinceGen uint64) any {
	p, _ := prev.(*fsSnap)
	s := &fsSnap{
		files:   make(map[string]*fileSnap, len(fs.files)),
		dirs:    fs.snapDirs(),
		fds:     fs.snapFDs(),
		nextFD:  fs.nextFD,
		nextLBA: fs.nextLBA,
		stats:   fs.stats,
	}
	fs.captured = fs.captured[:0]
	gen := fs.crashGen()
	for n, f := range fs.files {
		var pf *fileSnap
		if p != nil && f.genCreated <= sinceGen {
			if x := p.files[n]; x != nil && x.file == f {
				pf = x
			}
		}
		if pf == nil || f.maxDirtyGen > sinceGen {
			fsn := &fileSnap{file: f}
			take := func(b int64, blk []byte) {
				fsn.chunks[b/blockChunk][b%blockChunk] = blk
				s.copied += int64(len(blk))
				fs.captured = append(fs.captured, capturedBlock{f, b, blk})
			}
			if pf == nil {
				fsn.chunks = make([][][]byte, (f.Blocks()+blockChunk-1)/blockChunk)
				for b, blk := range f.dirty {
					if fsn.chunks[b/blockChunk] == nil {
						fsn.chunks[b/blockChunk] = make([][]byte, blockChunk)
					}
					take(b, blk)
				}
			} else {
				// stampedAfter is ascending, so each chunk is copied
				// from prev once, before its first block lands.
				fsn.chunks = slices.Clone(pf.chunks)
				copied := int64(-1)
				for _, b := range f.stampedAfter(sinceGen) {
					blk, ok := f.dirty[b]
					if !ok {
						continue
					}
					if c := b / blockChunk; c != copied {
						fsn.chunks[c] = make([][]byte, blockChunk)
						copy(fsn.chunks[c], pf.chunks[c])
						copied = c
					}
					take(b, blk)
				}
			}
			pf = fsn
		}
		s.files[n] = pf
		f.stamped = f.stamped[:0]
		f.stampedSince = gen
	}
	return s
}

// stampedAfter returns the blocks stamped after sinceGen, ascending. A
// capture asks for the generation of the capture before it, which the
// stamped list covers; an older sinceGen (a capture against some
// earlier image) falls back to scanning every stamp.
func (f *File) stampedAfter(sinceGen uint64) []int64 {
	var out []int64
	if sinceGen >= f.stampedSince {
		for _, b := range f.stamped {
			if f.dirtyGen[b] > sinceGen {
				out = append(out, b)
			}
		}
	} else {
		for b, g := range f.dirtyGen {
			if g > sinceGen {
				out = append(out, b)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// SnapshotBytes sizes a capture by the block payload it took from live
// state rather than shared with its predecessor, the dominant term of a
// file-system checkpoint. A full copy carries every dirty block; an
// incremental capture only the blocks written since its predecessor.
// The checkpoint-cost sweep and benchmark use it to show that
// incremental captures take O(dirty) bytes.
func SnapshotBytes(snap any) int64 {
	s, ok := snap.(*fsSnap)
	if !ok {
		return 0
	}
	return s.copied
}

// CrashRestore implements crash.Snapshotter.
func (fs *FS) CrashRestore(snap any) {
	s := snap.(*fsSnap)
	// Descriptors opened after the checkpoint fail closed.
	for fd, of := range fs.fdTable {
		if _, ok := s.fds[fd]; !ok {
			of.closed = true
		}
	}
	fs.files = make(map[string]*File, len(s.files))
	for n, fsn := range s.files {
		// The image's block slices become the live ones: a later write
		// replaces a block's slice rather than writing into it, so the
		// image stays intact for the next restore. Every one of them
		// was audited by the capture that took it.
		fsn.file.dirty = make(map[int64][]byte)
		for c, chunk := range fsn.chunks {
			for i, blk := range chunk {
				if blk != nil {
					fsn.file.dirty[int64(c*blockChunk+i)] = blk
				}
			}
		}
		// Restored blocks match the checkpoint image exactly, so their
		// dirty stamps rewind to zero: the next incremental capture
		// takes only post-restore writes. Stale stamps for blocks
		// written after the checkpoint die here too.
		fsn.file.dirtyGen = nil
		fsn.file.dirtyOwner = nil
		fsn.file.maxDirtyGen = 0
		fsn.file.stamped = fsn.file.stamped[:0]
		fsn.file.stampedSince = 0
		fs.files[n] = fsn.file
	}
	// A whole-kernel restore rewinds every domain at once, so recorded
	// cross-owner conflicts are moot.
	fs.ownerConflicts = nil
	fs.dirs = make(map[string]bool, len(s.dirs))
	for d := range s.dirs {
		fs.dirs[d] = true
	}
	fs.fdTable = make(map[int]*OpenFile, len(s.fds))
	for fd, osn := range s.fds {
		of := osn.of
		of.closed = false
		of.RAWindow = osn.raWindow
		of.queue = append([]int64(nil), osn.queue...)
		of.lastOff, of.lastLen, of.haveLast = osn.lastOff, osn.lastLen, osn.haveLast
		of.Reads, of.CacheHits, of.SyncStalls = osn.reads, osn.cacheHits, osn.syncStalls
		of.PrefetchUsed, of.PrefetchQueued = osn.prefetchUsed, osn.prefetchQueued
		of.StallTime = osn.stallTime
		fs.fdTable[fd] = of
	}
	fs.nextFD = s.nextFD
	fs.nextLBA = s.nextLBA
	fs.stats = s.stats
	// The buffer cache and read-ahead reservations are volatile: they
	// come back empty, like RAM after a reboot. Pending fetch callbacks
	// died with the clock reset.
	fs.cache = newCache(fs.cache.capacity)
	fs.raOutstanding = 0
}

// fileExport is one file's durable (on-disk) image: identity, size and
// the dirty blocks that differ from the deterministic pristine pattern,
// in block order.
type fileExport struct {
	Name   string
	Size   int64
	Owner  int64
	Public bool
	Dirty  []blockExport
}

// blockExport is one dirty block's contents.
type blockExport struct {
	Block int64
	Data  []byte
}

// fsExport is the file system's durable image. Directories ride along;
// descriptors, the cache and read-ahead state are volatile and rebuilt
// empty after import.
type fsExport struct {
	Files []fileExport
	Dirs  []string
}

// CrashExport implements crash.Exporter.
func (fs *FS) CrashExport() ([]byte, error) {
	ex := &fsExport{}
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.files[n]
		fe := fileExport{Name: f.Name, Size: f.Size, Owner: int64(f.Owner), Public: f.Public}
		for b, d := range f.dirty {
			fe.Dirty = append(fe.Dirty, blockExport{Block: b, Data: d})
		}
		slices.SortFunc(fe.Dirty, func(x, y blockExport) int { return cmp.Compare(x.Block, y.Block) })
		ex.Files = append(ex.Files, fe)
	}
	for d := range fs.dirs {
		ex.Dirs = append(ex.Dirs, d)
	}
	sort.Strings(ex.Dirs)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ex)
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter: files are recreated through
// the normal namespace path and their block contents injected. Meant
// for a freshly built file system (the disk image stands in for the
// machine that crashed).
func (fs *FS) CrashImport(data []byte) error {
	var ex fsExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ex); err != nil {
		return err
	}
	for _, d := range ex.Dirs {
		fs.dirs[d] = true
	}
	for _, fe := range ex.Files {
		f := fs.Create(fe.Name, fe.Size, graft.UID(fe.Owner), fe.Public)
		for _, d := range fe.Dirty {
			if d.Block < 0 || d.Block >= f.Blocks() || len(d.Data) != BlockSize {
				return fmt.Errorf("fs: import %q: bad block %d (%d bytes)", fe.Name, d.Block, len(d.Data))
			}
			f.dirty[d.Block] = d.Data
		}
	}
	return nil
}

func ownerName(o string) string {
	if o == "" {
		return "kernel"
	}
	return o
}

// CrashOwnerConflicts implements crash.DomainScoper: it reports blocks
// where owner and another domain both wrote after sinceGen. Reverting
// the offender's copy of such a block would also rewind the other
// domain's completed write, so recovery must widen. Conflicts where
// either write predates the checkpoint are moot — the older write is
// already durable in the checkpoint image. The conflict log is
// append-only between whole-kernel restores; at simulator scale the
// unbounded growth is acceptable.
func (fs *FS) CrashOwnerConflicts(sinceGen uint64, owner string) []string {
	var out []string
	for _, c := range fs.ownerConflicts {
		if c.gen <= sinceGen || c.prevGen <= sinceGen {
			continue
		}
		if c.owner != owner && c.prevOwner != owner {
			continue
		}
		out = append(out, fmt.Sprintf("file %q block %d: %s overwrote %s",
			c.file, c.block, ownerName(c.owner), ownerName(c.prevOwner)))
	}
	return out
}

// CrashRestoreDomain implements crash.DomainScoper: it reverts only the
// blocks owner dirtied after sinceGen back to their content in snap (the
// full image captured at that generation), and removes files owner
// created after the checkpoint. Everything else — other owners' writes,
// the shared descriptor table, counters, the untouched cache entries —
// stays live.
func (fs *FS) CrashRestoreDomain(owner string, snap any, sinceGen uint64) int64 {
	s := snap.(*fsSnap)
	var bytes int64
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.files[n]
		if f.crashOwner == owner && owner != "" && f.genCreated > sinceGen {
			// The offender created this file after the checkpoint: it
			// vanishes wholesale, along with any descriptors onto it
			// (which fail closed, as after a whole-kernel restore).
			for _, blk := range f.dirty {
				bytes += int64(len(blk))
			}
			for fd, of := range fs.fdTable {
				if of.file == f {
					of.closed = true
					delete(fs.fdTable, fd)
				}
			}
			for b := int64(0); b < f.Blocks(); b++ {
				fs.cache.drop(f.start + b)
			}
			delete(fs.files, n)
			continue
		}
		if len(f.dirtyOwner) == 0 {
			continue
		}
		fsn := s.files[n]
		blocks := make([]int64, 0, len(f.dirtyOwner))
		for b, own := range f.dirtyOwner {
			if own == owner && f.dirtyGen[b] > sinceGen {
				blocks = append(blocks, b)
			}
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		for _, b := range blocks {
			if fsn != nil {
				if blk := fsn.block(b); blk != nil {
					f.dirty[b] = blk
				} else {
					delete(f.dirty, b)
				}
			} else {
				// File absent from the checkpoint image (created after it
				// by another domain): the offender's block reverts to
				// pristine content.
				delete(f.dirty, b)
			}
			delete(f.dirtyOwner, b)
			delete(f.dirtyGen, b)
			fs.cache.drop(f.start + b)
			bytes += BlockSize
		}
	}
	return bytes
}

// CrashAudit implements crash.Auditor: a read-only structural check
// restricted to invariants that hold at any instant (Fsck's quiescence
// checks — no read-ahead or fetches in flight — are deliberately
// excluded, since checkpoints fire on a cadence with I/O logically
// outstanding). Its block checks cover only the blocks the latest
// capture took from live state. Every other live block passed them
// already: it was taken and audited by an earlier capture, installed by
// a restore from such a capture's image, or validated by CrashImport,
// and blocks are never written in place.
func (fs *FS) CrashAudit() []string {
	var bad []string
	for _, c := range fs.captured {
		bad = auditBlock(bad, c.file, c.block, c.data)
	}
	return append(bad, fs.auditCache()...)
}

// auditBlock appends what is wrong with dirty block b of f.
func auditBlock(bad []string, f *File, b int64, d []byte) []string {
	if b < 0 || b >= f.Blocks() {
		bad = append(bad, fmt.Sprintf("file %q: dirty block %d outside file", f.Name, b))
	}
	if len(d) != BlockSize {
		bad = append(bad, fmt.Sprintf("file %q: dirty block %d has %d bytes", f.Name, b, len(d)))
	}
	return bad
}

// auditCache checks the buffer cache's index against its LRU list and
// its capacity.
func (fs *FS) auditCache() []string {
	var bad []string
	if fs.cache.lru.Len() != len(fs.cache.byLBA) {
		bad = append(bad, fmt.Sprintf("cache: lru holds %d blocks, index %d", fs.cache.lru.Len(), len(fs.cache.byLBA)))
	}
	if fs.cache.lru.Len() > fs.cache.capacity {
		bad = append(bad, fmt.Sprintf("cache: %d blocks resident, capacity %d", fs.cache.lru.Len(), fs.cache.capacity))
	}
	return bad
}

// Fsck audits the file system's structural invariants. It is meant to
// run at quiescent points (after a Run round, or after crash recovery):
// it checks the fd table, then every dirty block and the cache bounds
// (CrashAudit's checks, over all blocks rather than the captured ones),
// then the cache index and that no read-ahead or fetch is in flight.
// The returned slice is empty when the image is consistent.
func (fs *FS) Fsck() []string {
	var bad []string
	fds := make([]int, 0, len(fs.fdTable))
	for fd := range fs.fdTable {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	for _, fd := range fds {
		of := fs.fdTable[fd]
		switch {
		case of == nil:
			bad = append(bad, fmt.Sprintf("fd %d: nil entry", fd))
			continue
		case of.closed:
			bad = append(bad, fmt.Sprintf("fd %d: closed but still in table", fd))
		case of.fd != fd:
			bad = append(bad, fmt.Sprintf("fd %d: entry claims fd %d", fd, of.fd))
		}
		if got, ok := fs.files[of.file.Name]; !ok || got != of.file {
			bad = append(bad, fmt.Sprintf("fd %d: file %q not in namespace", fd, of.file.Name))
		}
		seen := make(map[int64]bool)
		for _, b := range of.queue {
			if b < 0 || b >= of.file.Blocks() {
				bad = append(bad, fmt.Sprintf("fd %d: queued block %d outside file (%d blocks)", fd, b, of.file.Blocks()))
			}
			if seen[b] {
				bad = append(bad, fmt.Sprintf("fd %d: block %d queued twice", fd, b))
			}
			seen[b] = true
		}
	}
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fs.files[n]
		for b, d := range f.dirty {
			bad = auditBlock(bad, f, b, d)
		}
	}
	bad = append(bad, fs.auditCache()...)
	for e := fs.cache.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if got, ok := fs.cache.byLBA[ent.lba]; !ok || got != e {
			bad = append(bad, fmt.Sprintf("cache: lba %d not indexed consistently", ent.lba))
		}
	}
	if fs.raOutstanding != 0 {
		bad = append(bad, fmt.Sprintf("%d read-ahead I/Os outstanding at quiescence", fs.raOutstanding))
	}
	if n := len(fs.cache.fetching); n != 0 {
		bad = append(bad, fmt.Sprintf("%d fetches in flight at quiescence", n))
	}
	return bad
}
