package core

import (
	"errors"
	"fmt"
	"sync"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/cache"
	"lsmssd/internal/memtable"
	"lsmssd/internal/obs"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// ErrClosed is returned by snapshot acquisition after the tree has been
// marked closed.
var ErrClosed = errors.New("core: tree is closed")

// View is an immutable snapshot of the tree's user-visible contents: the
// memtable (a persistent B+-tree root) plus every storage level's frozen
// block-metadata slice. Levels change only through merges, which install
// freshly allocated metadata slices and never update data blocks in place,
// so a View stays internally consistent for as long as it is held — reads
// against it need no lock, no matter how many merges run meanwhile.
//
// Views are reference-counted. Blocks a merge removes from the tree are
// not freed on the device until every View that might reference them has
// been released; see Tree.install and Tree.reclaimLocked. Always pair
// AcquireView with Release.
type View struct {
	tree   *Tree
	seq    uint64
	refs   int // guarded by tree.viewMu
	mem    *memtable.Snapshot
	levels []LevelView
}

// LevelView is the frozen metadata of one storage level at capture time.
// Runs holds one metadata slice per sorted run, newest first; a leveled
// level has exactly one run, so Runs[0] is the classic level image.
type LevelView struct {
	Number        int // 1-based level number
	Runs          [][]btree.BlockMeta
	Records       int
	Capacity      int // K_i in blocks
	WasteFactor   float64
	BlocksWritten int64 // cumulative writes into this level
	Compactions   int64
}

// Blocks returns the number of data blocks in the level at capture time,
// summed over its runs.
func (lv *LevelView) Blocks() int {
	n := 0
	for _, metas := range lv.Runs {
		n += len(metas)
	}
	return n
}

// zombieBatch records blocks logically freed during the mutation that
// retired the view with sequence number seq: they may still be referenced
// by any view with sequence <= seq and are physically freed only once no
// such view remains acquired.
type zombieBatch struct {
	seq uint64
	ids []storage.BlockID
}

// --- acquisition and reclamation ----------------------------------------

// AcquireView returns the current snapshot with its reference count
// raised, or an error if the tree is closed. When a write has changed L0
// since the current snapshot captured it, it first publishes a new one
// (publish), an O(1) capture. The locks involved are held for a few
// instructions: viewMu, and L0's mutex for the capture, which a writer
// holds for one batch — readers never wait on a merge's work. Callers must
// Release the view when done.
func (t *Tree) AcquireView() (*View, error) {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	if t.closed || t.cur == nil {
		return nil, ErrClosed
	}
	if t.memDirty.Load() {
		t.publish()
	}
	t.cur.refs++
	return t.cur, nil
}

// Release drops the caller's reference. When the last reference to a
// retired view goes away, device blocks that only that view (and older
// ones) could still reach are physically freed.
func (v *View) Release() {
	t := v.tree
	t.viewMu.Lock()
	v.refs--
	if v.refs == 0 && v != t.cur {
		t.removeLiveLocked(v)
		t.reclaimLocked()
	}
	t.viewMu.Unlock()
}

// publish makes a View of L0 as it stands, with the current view's level
// image, the snapshot readers acquire. Writers do not call it: ApplyBatch
// only marks L0 changed, and the next AcquireView publishes, so writes with
// no reader between them freeze nothing and each reader pays one O(1)
// capture after a write. The caller holds viewMu; publish takes L0's mutex
// for the capture (lock order: viewMu, then memMu).
func (t *Tree) publish() {
	t.memMu.Lock()
	t.memDirty.Store(false)
	mem := t.mem.Snapshot()
	t.memMu.Unlock()
	t.publishFreeing(mem, t.cur.levels, nil)
}

// installLevels makes levels (and backlog, the storage levels firing in
// it) the installed level image and publishes it: an install of a step
// that moved nothing out of L0. Merge lock.
func (t *Tree) installLevels(levels []LevelView, backlog int) {
	t.install(&step{levels: levels, backlog: backlog})
}

// install makes st's level image the installed one and publishes it with
// L0, after removing from L0 the records of st's window that no write has
// replaced since st's snapshot (a step out of L0). The removal, the swap
// and the publish are one critical section under viewMu and L0's mutex, so
// no reader captures L0 without the window and the levels without its
// merged copy, or the reverse. The blocks the step freed become deferred
// frees: the views published before this one may still read them. Merge
// lock.
func (t *Tree) install(st *step) {
	t.viewMu.Lock()
	t.memMu.Lock()
	if st.snap != nil {
		t.mem.RemoveUnchanged(st.lo, st.hi, st.snap)
	}
	t.memDirty.Store(false)
	mem := t.mem.Snapshot()
	t.levelBacklog = st.backlog
	t.memMu.Unlock()
	t.publishFreeing(mem, st.levels, t.pending)
	t.viewMu.Unlock()
	t.pending, t.written = nil, nil
}

// publishFreeing makes a View of mem and levels the current snapshot and
// queues freed, the blocks that only views up to the previous one can
// reach, for reclamation. The caller holds viewMu.
func (t *Tree) publishFreeing(mem *memtable.Snapshot, levels []LevelView, freed []storage.BlockID) {
	nv := &View{tree: t, mem: mem, levels: levels, refs: 1}
	t.seq++
	nv.seq = t.seq
	old := t.cur
	if len(freed) > 0 && old != nil {
		t.zombies = append(t.zombies, zombieBatch{seq: old.seq, ids: freed})
		t.zombieN += int64(len(freed))
	}
	t.cur = nv
	t.liveViews = append(t.liveViews, nv)
	if old != nil {
		old.refs--
		if old.refs == 0 {
			t.removeLiveLocked(old)
		}
	}
	t.reclaimLocked()
}

// levelImage captures the storage levels as the LevelViews a View holds,
// and counts the storage levels the overflow rule fires on. Merge lock.
func (t *Tree) levelImage() ([]LevelView, int) {
	levels := make([]LevelView, len(t.slots))
	for i, s := range t.slots {
		runs := make([][]btree.BlockMeta, len(s.runs))
		blocks := 0
		for j, r := range s.runs {
			runs[j] = r.Index().All() // immutable: ReplaceRange swaps slices
			blocks += r.Blocks()
		}
		records := s.records()
		levels[i] = LevelView{
			Number:        i + 1,
			Runs:          runs,
			Records:       records,
			Capacity:      s.newest().Capacity(),
			WasteFactor:   btree.WasteFactor(blocks, records, t.cfg.BlockCapacity),
			BlocksWritten: s.blocksWritten(),
			Compactions:   s.compactions(),
		}
	}
	backlog := 0
	for i := 1; i <= len(t.slots); i++ {
		if t.fires(i) {
			backlog++
		}
	}
	return levels, backlog
}

// removeLiveLocked drops v from the acquired-view list. Callers hold viewMu.
func (t *Tree) removeLiveLocked(v *View) {
	for i, lv := range t.liveViews {
		if lv == v {
			t.liveViews = append(t.liveViews[:i], t.liveViews[i+1:]...)
			return
		}
	}
}

// reclaimLocked frees every zombie batch no acquired view can reach: batch
// seq S is reclaimable once the oldest acquired view is newer than S.
// Callers hold viewMu.
func (t *Tree) reclaimLocked() {
	minSeq := ^uint64(0)
	if len(t.liveViews) > 0 {
		minSeq = t.liveViews[0].seq
	}
	i := 0
	for ; i < len(t.zombies) && t.zombies[i].seq < minSeq; i++ {
		for _, id := range t.zombies[i].ids {
			t.zombieN--
			if t.closed {
				continue // device is being torn down; nothing to recycle
			}
			// The filter goes first: once freed, the slot may be
			// reallocated to a merge step that registers its own.
			if t.blooms != nil {
				t.blooms.Drop(id)
			}
			if err := t.dev.Free(id); err != nil && t.reclaimErr == nil {
				t.reclaimErr = fmt.Errorf("core: deferred free of block %d: %w", id, err)
			}
		}
	}
	if i > 0 {
		t.zombies = append(t.zombies[:0:0], t.zombies[i:]...)
		if len(t.zombies) == 0 {
			t.zombies = nil
		}
	}
}

// MarkClosed makes every subsequent AcquireView fail with ErrClosed and
// stops deferred frees from touching the device (the owner is about to
// close it). In-flight views remain released as usual.
func (t *Tree) MarkClosed() {
	t.viewMu.Lock()
	t.closed = true
	t.viewMu.Unlock()
}

// LiveViews returns the number of currently acquired snapshots (including
// the tree's own reference to the current view). Diagnostics only.
func (t *Tree) LiveViews() int {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	return len(t.liveViews)
}

// DeferredFrees returns the number of device blocks logically removed from
// the tree but not yet physically freed because a snapshot may still read
// them. The paper's live-block accounting must add this to the levels'
// references.
func (t *Tree) DeferredFrees() int64 {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	return t.zombieN
}

// reclaimError surfaces the first error a deferred free produced, if any.
func (t *Tree) reclaimError() error {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	return t.reclaimErr
}

// treeDevice is the device handed to the tree's levels: block I/O passes
// through to the (possibly cached) device, but Free only queues the block
// in pending, which the next install hands to the snapshot reclamation
// protocol, so lock-free readers never observe a recycled block. Writes
// are noted in written, so a failed merge step can free what it wrote.
// Both lists belong to the storage-level mutation in progress (merge lock).
type treeDevice struct {
	t *Tree
}

func (d treeDevice) Alloc() storage.BlockID { return d.t.dev.Alloc() }
func (d treeDevice) Write(id storage.BlockID, b *block.Block) error {
	if err := d.t.dev.Write(id, b); err != nil {
		return err
	}
	d.t.written = append(d.t.written, id)
	return nil
}
func (d treeDevice) ReadInto(id storage.BlockID, dst *block.Block) error {
	return d.t.dev.ReadInto(id, dst)
}
func (d treeDevice) Read(id storage.BlockID) (*block.Block, error) { return d.t.dev.Read(id) }
func (d treeDevice) Peek(id storage.BlockID, dst *block.Block) error {
	return d.t.dev.Peek(id, dst)
}
func (d treeDevice) Free(id storage.BlockID) error {
	d.t.pending = append(d.t.pending, id)
	return nil
}
func (d treeDevice) Counters() storage.Counters { return d.t.dev.Counters() }
func (d treeDevice) Close() error               { return d.t.dev.Close() }

// --- snapshot reads ------------------------------------------------------

// Seq returns the snapshot's publication sequence number.
func (v *View) Seq() uint64 { return v.seq }

// Height returns the number of levels including L0 at capture time.
func (v *View) Height() int { return len(v.levels) + 1 }

// MemLen returns the number of memtable records at capture time.
func (v *View) MemLen() int { return v.mem.Len() }

// Levels returns the frozen per-level metadata. Treat as read-only.
func (v *View) Levels() []LevelView { return v.levels }

// Config returns the configuration of the tree the view was taken from.
func (v *View) Config() Config { return v.tree.cfg }

// Layout returns the layout axis of the tree the view was taken from.
func (v *View) Layout() policy.Layout { return v.tree.layout }

// Records returns the records stored at capture time, including shadowed
// versions and tombstones.
func (v *View) Records() int {
	n := v.mem.Len()
	for i := range v.levels {
		n += v.levels[i].Records
	}
	return n
}

// PeekBlock loads a data block referenced by this view into dst without
// counting device traffic (diagnostics: histograms, validation).
func (v *View) PeekBlock(id storage.BlockID, dst *block.Block) error {
	return v.tree.dev.Peek(id, dst)
}

// Get returns the payload stored for k as of the snapshot. The lookup
// starts at L0 and descends level by level until a match — normal or
// tombstone — decides the answer (Section II-A).
func (v *View) Get(k block.Key) ([]byte, bool, error) {
	return v.GetTraced(k, nil)
}

// GetTraced is Get with latency attribution: when sp is non-nil the
// lookup's wall time is split into the memtable probe, Bloom checks, and
// block fetches, each labelled a cache hit or a device pread by what the
// cache reports it did. A nil span makes every instrumentation point a
// no-op nil check.
//
// A value found in L0 is the memtable's own, shared and immutable; a value
// found in a storage level is a private copy, made under the cache shard's
// lock (the frame it came from may be refilled once the lock is released),
// and is the one allocation such a Get makes.
func (v *View) GetTraced(k block.Key, sp *obs.Span) ([]byte, bool, error) {
	t := v.tree
	t.cnt.lookups.Add(1)
	sp.To(obs.PhaseMemtable)
	if r, ok := v.mem.Get(k); ok {
		sp.To(obs.PhaseOther)
		if r.Tombstone {
			return nil, false, nil
		}
		return r.Payload, true, nil
	}
	sp.To(obs.PhaseOther)
	for i := range v.levels {
		// Within a level, runs are consulted newest first: a match in a
		// newer run shadows anything in the older ones.
		for _, metas := range v.levels[i].Runs {
			m, ok := findBlock(metas, k)
			if !ok {
				continue
			}
			if t.blooms != nil {
				sp.To(obs.PhaseBloom)
				may := t.blooms.MayContain(m.ID, k)
				sp.To(obs.PhaseOther)
				if !may {
					continue
				}
			}
			sp.To(obs.PhaseDevRead)
			r, ok, hit, err := t.cache.Get(m.ID, k)
			if hit {
				sp.Relabel(obs.PhaseCacheRead)
			}
			sp.To(obs.PhaseOther)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			if r.Tombstone {
				return nil, false, nil
			}
			return r.Payload, true, nil
		}
	}
	return nil, false, nil
}

// findBlock locates the block whose key range contains k.
func findBlock(metas []btree.BlockMeta, k block.Key) (btree.BlockMeta, bool) {
	i, ok := btree.FindIn(metas, k)
	if !ok {
		return btree.BlockMeta{}, false
	}
	return metas[i], true
}

// Scan calls fn for every live record with key in [lo, hi] as of the
// snapshot, in key order, stopping early when fn returns false. The
// payload is valid only until fn returns (see Iter.Value).
func (v *View) Scan(lo, hi block.Key, fn func(k block.Key, payload []byte) bool) error {
	it := v.Iter(lo, hi, nil)
	defer it.Close()
	for it.Next() {
		if !fn(it.Key(), it.Value()) {
			return nil
		}
	}
	return it.Err()
}

// Iter returns an iterator over the live records with key in [lo, hi] as
// of the snapshot. Every stream is lazy: L0 is a cursor over the memtable
// snapshot and each run loads its blocks on demand, so an iteration costs
// O(log n) to seek plus what it returns, not what [lo, hi] spans. The
// iterator does not own a view reference; the caller must keep the view
// acquired for the iterator's lifetime (the public lsmssd.Iterator wrapper
// does exactly that).
//
// When sp is non-nil the L0 seek is attributed to PhaseMemtable and every
// block load to PhaseCacheRead or PhaseDevRead, each returning to
// PhaseKWayMerge, the phase the caller runs the iteration in. A nil span
// keeps iteration untraced.
func (v *View) Iter(lo, hi block.Key, sp *obs.Span) *Iter {
	v.tree.cnt.scans.Add(1)
	// One stream per sorted run (plus L0); each is a key-ordered record
	// sequence. At every step the smallest key wins, the uppermost
	// stream's record is authoritative, and all streams advance past it.
	// Stream order — L0, then each level's runs newest first — is exactly
	// the shadowing precedence.
	streams := make([]iterStream, 0, len(v.levels)+1)
	sp.To(obs.PhaseMemtable)
	streams = append(streams, iterStream{mem: v.mem.Cursor(lo, hi)})
	sp.To(obs.PhaseKWayMerge)
	for i := range v.levels {
		for _, metas := range v.levels[i].Runs {
			start, end := btree.OverlapIn(metas, lo, hi)
			streams = append(streams, iterStream{
				cache: v.tree.cache, sp: sp, metas: metas,
				blk: start, blkEnd: end, lo: lo, hi: hi,
			})
		}
	}
	return &Iter{streams: streams}
}

// Iter streams the live records of one snapshot in ascending key order.
// Records in upper levels shadow same-key records below; tombstones hide
// matches without being reported.
type Iter struct {
	streams []iterStream
	key     block.Key
	val     []byte
	err     error
	done    bool
}

// Next advances to the next live record, reporting whether one exists.
// After Next returns false, check Err.
func (it *Iter) Next() bool {
	if it.done {
		return false
	}
	for {
		found := false
		var best block.Record
		for i := range it.streams {
			r, ok, err := it.streams[i].peek()
			if err != nil {
				it.err = err
				it.done = true
				return false
			}
			if ok && (!found || r.Key < best.Key) {
				found, best = true, r
			}
		}
		if !found {
			it.done = true
			return false
		}
		for i := range it.streams {
			it.streams[i].skipKey(best.Key)
		}
		if !best.Tombstone {
			it.key, it.val = best.Key, best.Payload
			return true
		}
	}
}

// Key returns the current record's key. Valid after Next returned true.
func (it *Iter) Key() block.Key { return it.key }

// Value returns the current record's payload. Valid after Next returned
// true, and only until the next call to Next: a value from a storage level
// points into its run's block buffer, which the run refills with its next
// block. A caller that keeps values copies them (the public Iterator does).
func (it *Iter) Value() []byte { return it.val }

// Err returns the first error the iteration hit, if any.
func (it *Iter) Err() error { return it.err }

// Close hands the runs' block buffers back for the next iteration to
// reuse. No value Next returned may be used afterwards; Next returns
// false. Closing twice is a no-op.
func (it *Iter) Close() {
	it.done = true
	for i := range it.streams {
		if b := it.streams[i].buf; b != nil {
			it.streams[i].buf, it.streams[i].have = nil, false
			runBuffers.Put(b)
		}
	}
}

// runBuffers recycles iterator runs' block buffers across iterations, so
// a scan allocates none once buffers as large have been handed back.
var runBuffers = sync.Pool{New: func() any { return new(block.Block) }}

// iterStream streams records of one sorted run (or L0 when mem is set)
// within the iteration bounds.
type iterStream struct {
	// L0 mode: a cursor over the memtable snapshot, bounded to [lo, hi].
	mem *memtable.Cursor
	// Level mode: walk metas[blk:blkEnd), loading each block on demand
	// through the cache into buf (from runBuffers at the first load), which
	// the stream reuses for every block; reads count.
	cache       *cache.Cache
	sp          *obs.Span // latency attribution; may be nil
	metas       []btree.BlockMeta
	blk, blkEnd int
	buf         *block.Block
	cur         block.Cursor
	rec         block.Record // the record cur stands on, when have
	have        bool
	lo, hi      block.Key
}

func (s *iterStream) peek() (block.Record, bool, error) {
	if s.mem != nil {
		r, ok := s.mem.Peek()
		return r, ok, nil
	}
	for {
		if s.have {
			if s.rec.Key > s.hi {
				return block.Record{}, false, nil
			}
			if s.rec.Key >= s.lo {
				return s.rec, true, nil
			}
			s.rec, s.have = s.cur.Next()
			continue
		}
		if s.blk >= s.blkEnd {
			return block.Record{}, false, nil
		}
		if s.buf == nil {
			s.buf = runBuffers.Get().(*block.Block)
		}
		s.sp.To(obs.PhaseDevRead)
		hit, err := s.cache.Load(s.metas[s.blk].ID, s.lo, s.hi, s.buf)
		if hit {
			s.sp.Relabel(obs.PhaseCacheRead)
		}
		s.sp.To(obs.PhaseKWayMerge)
		if err != nil {
			return block.Record{}, false, err
		}
		s.blk++
		s.cur = s.buf.Cursor()
		s.rec, s.have = s.cur.Next()
	}
}

func (s *iterStream) skipKey(k block.Key) {
	if s.mem != nil {
		if r, ok := s.mem.Peek(); ok && r.Key == k {
			s.mem.Advance()
		}
		return
	}
	if s.have && s.rec.Key == k {
		s.rec, s.have = s.cur.Next()
	}
}

// --- snapshot validation -------------------------------------------------

// Validate checks the snapshot's structural invariants without any lock and
// without perturbing the I/O statistics (contents are read with Peek): each
// run's Section II constraints (btree.ValidateMetas), and what only the
// tree knows — capacity labels, the layout's run count for leveled levels,
// bottom-level tombstone absence, and fence/content consistency.
//
// Device-level accounting (live blocks vs references) spans state outside
// any one snapshot; Tree.Validate checks it under the writer's quiescence.
func (v *View) Validate() error {
	cfg := v.tree.cfg
	layout := v.tree.layout
	var blk block.Block
	for _, lv := range v.levels {
		if want := cfg.capacityBlocks(lv.Number); lv.Capacity != want {
			return fmt.Errorf("core: L%d capacity %d, want %d", lv.Number, lv.Capacity, want)
		}
		tiered := layout.Tiered(lv.Number, len(v.levels)+1)
		if !tiered && len(lv.Runs) != 1 {
			return fmt.Errorf("core: leveled L%d holds %d runs", lv.Number, len(lv.Runs))
		}
		for ri, metas := range lv.Runs {
			if err := btree.ValidateMetas(metas, cfg.BlockCapacity, cfg.Epsilon); err != nil {
				return fmt.Errorf("core: L%d run %d: %w", lv.Number, ri, err)
			}
			for j, m := range metas {
				// Tombstones must not survive in a leveled bottom level. A
				// tiered bottom legitimately carries them until its runs
				// consolidate, since a newer bottom run still shadows the
				// older ones below it.
				if lv.Number == len(v.levels) && !tiered && m.Tombstones > 0 {
					return fmt.Errorf("core: tombstones in bottom level block %d", j)
				}
				if err := v.PeekBlock(m.ID, &blk); err != nil {
					return fmt.Errorf("core: L%d run %d block %d: %w", lv.Number, ri, j, err)
				}
				if got := btree.MetaFor(m.ID, &blk); got != m {
					return fmt.Errorf("core: L%d run %d block %d stale fence pointer: meta %+v vs contents %+v",
						lv.Number, ri, j, m, got)
				}
			}
		}
	}
	return nil
}
