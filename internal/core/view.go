package core

import (
	"errors"
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/cache"
	"lsmssd/internal/memtable"
	"lsmssd/internal/obs"
	"lsmssd/internal/storage"
)

// ErrClosed is returned by snapshot acquisition after the tree has been
// marked closed.
var ErrClosed = errors.New("core: tree is closed")

// View is an immutable snapshot of the tree's user-visible contents: the
// memtable (a persistent-treap root) plus every storage level's frozen
// block-metadata slice. Levels change only through merges, which install
// freshly allocated metadata slices and never update data blocks in place,
// so a View stays internally consistent for as long as it is held — reads
// against it need no lock, no matter how many merges run meanwhile.
//
// Views are reference-counted. Blocks a merge removes from the tree are
// not freed on the device until every View that might reference them has
// been released; see Tree.publish and Tree.reclaimLocked. Always pair
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
// raised, or an error if the tree is closed. The only lock involved is a
// few-instruction bookkeeping mutex — readers never wait on the writer's
// merge work. Callers must Release the view when done.
func (t *Tree) AcquireView() (*View, error) {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	if t.closed || t.cur == nil {
		return nil, ErrClosed
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

// publish captures the tree's current state as a new View and installs it
// as the snapshot subsequent readers acquire. The writer calls it after
// every structural change (request, merge, growth, restore), so a reader
// always sees a state the invariant auditor has accepted.
func (t *Tree) publish() {
	nv := &View{tree: t, mem: t.mem.Snapshot(), refs: 1}
	nv.levels = make([]LevelView, len(t.slots))
	for i, s := range t.slots {
		runs := make([][]btree.BlockMeta, len(s.runs))
		blocks := 0
		for j, r := range s.runs {
			runs[j] = r.Index().All() // immutable: ReplaceRange swaps slices
			blocks += r.Blocks()
		}
		records := s.records()
		nv.levels[i] = LevelView{
			Number:        i + 1,
			Runs:          runs,
			Records:       records,
			Capacity:      s.newest().Capacity(),
			WasteFactor:   btree.WasteFactor(blocks, records, t.cfg.BlockCapacity),
			BlocksWritten: s.blocksWritten(),
			Compactions:   s.compactions(),
		}
	}
	t.viewMu.Lock()
	t.seq++
	nv.seq = t.seq
	old := t.cur
	if len(t.pending) > 0 && old != nil {
		t.zombies = append(t.zombies, zombieBatch{seq: old.seq, ids: t.pending})
		t.zombieN += int64(len(t.pending))
		t.pending = nil
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
	t.viewMu.Unlock()
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
// them (plus any accumulated in the current mutation). The paper's
// live-block accounting must add this to the levels' references.
func (t *Tree) DeferredFrees() int64 {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	return int64(len(t.pending)) + t.zombieN
}

// reclaimError surfaces the first error a deferred free produced, if any.
func (t *Tree) reclaimError() error {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	return t.reclaimErr
}

// deferFree queues id for release once no acquired snapshot can reference
// it. Levels call this (through the treeDevice wrapper) instead of freeing
// eagerly.
func (t *Tree) deferFree(id storage.BlockID) {
	t.pending = append(t.pending, id)
}

// treeDevice is the device handed to the tree's levels: block I/O passes
// through to the (possibly cached) device, but Free is deferred through
// the snapshot reclamation protocol so lock-free readers never observe a
// recycled block.
type treeDevice struct {
	t *Tree
}

func (d treeDevice) Alloc() storage.BlockID { return d.t.dev.Alloc() }
func (d treeDevice) Write(id storage.BlockID, b *block.Block) error {
	return d.t.dev.Write(id, b)
}
func (d treeDevice) Read(id storage.BlockID) (*block.Block, error) { return d.t.dev.Read(id) }
func (d treeDevice) Peek(id storage.BlockID) (*block.Block, error) { return d.t.dev.Peek(id) }
func (d treeDevice) Free(id storage.BlockID) error {
	d.t.deferFree(id)
	return nil
}
func (d treeDevice) Counters() storage.Counters { return d.t.dev.Counters() }
func (d treeDevice) ResetCounters()             { d.t.dev.ResetCounters() }
func (d treeDevice) Close() error               { return d.t.dev.Close() }

// --- snapshot reads ------------------------------------------------------

// Seq returns the snapshot's publication sequence number.
func (v *View) Seq() uint64 { return v.seq }

// Height returns the number of levels including L0 at capture time.
func (v *View) Height() int { return len(v.levels) + 1 }

// MemLen returns the number of memtable records at capture time.
func (v *View) MemLen() int { return v.mem.Len() }

// MemBytes returns the memtable's request-byte footprint at capture time.
func (v *View) MemBytes() int { return v.mem.Bytes() }

// Levels returns the frozen per-level metadata. Treat as read-only.
func (v *View) Levels() []LevelView { return v.levels }

// Records returns the records stored at capture time, including shadowed
// versions and tombstones.
func (v *View) Records() int {
	n := v.mem.Len()
	for i := range v.levels {
		n += v.levels[i].Records
	}
	return n
}

// PeekBlock reads a data block referenced by this view without counting
// device traffic (diagnostics: histograms, validation).
func (v *View) PeekBlock(id storage.BlockID) (*block.Block, error) {
	return v.tree.dev.Peek(id)
}

// Get returns the payload stored for k as of the snapshot. The lookup
// starts at L0 and descends level by level until a match — normal or
// tombstone — decides the answer (Section II-A).
func (v *View) Get(k block.Key) ([]byte, bool, error) {
	return v.GetTraced(k, nil)
}

// GetTraced is Get with latency attribution: when sp is non-nil the
// lookup's wall time is split into the memtable probe, Bloom checks, and
// block fetches classified as cache hits or device preads (via a
// non-promoting cache presence check). A nil span makes every
// instrumentation point a no-op nil check, so the plain Get path stays
// allocation-free.
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
			if sp != nil {
				if t.cache.Contains(m.ID) {
					sp.To(obs.PhaseCacheRead)
				} else {
					sp.To(obs.PhaseDevRead)
				}
			}
			blk, err := t.dev.Read(m.ID)
			sp.To(obs.PhaseOther)
			if err != nil {
				return nil, false, err
			}
			r, ok := blk.Find(k)
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
// snapshot, in key order, stopping early when fn returns false.
func (v *View) Scan(lo, hi block.Key, fn func(k block.Key, payload []byte) bool) error {
	it := v.Iter(lo, hi)
	for it.Next() {
		if !fn(it.Key(), it.Value()) {
			return nil
		}
	}
	return it.Err()
}

// Iter returns an iterator over the live records with key in [lo, hi] as
// of the snapshot. The iterator does not own a view reference; the caller
// must keep the view acquired for the iterator's lifetime (the public
// lsmssd.Iterator wrapper does exactly that).
func (v *View) Iter(lo, hi block.Key) *Iter {
	v.tree.cnt.scans.Add(1)
	// One stream per sorted run (plus L0); each is a key-ordered record
	// sequence. At every step the smallest key wins, the uppermost
	// stream's record is authoritative, and all streams advance past it.
	// Stream order — L0, then each level's runs newest first — is exactly
	// the shadowing precedence.
	streams := make([]*iterStream, 0, len(v.levels)+1)
	var memRecs []block.Record
	v.mem.Ascend(lo, hi, func(r block.Record) bool {
		memRecs = append(memRecs, r)
		return true
	})
	streams = append(streams, &iterStream{recs: memRecs})
	for i := range v.levels {
		for _, metas := range v.levels[i].Runs {
			start, end := btree.OverlapIn(metas, lo, hi)
			streams = append(streams, &iterStream{
				dev: v.tree.dev, cache: v.tree.cache, metas: metas,
				blk: start, blkEnd: end, lo: lo, hi: hi,
			})
		}
	}
	return &Iter{streams: streams}
}

// SetSpan attaches a latency-attribution span to the iterator: block
// loads triggered by Next are then classified as cache hits or device
// preads against the span, with the surrounding heap work attributed to
// the k-way merge phase by the caller. A nil span (the default) keeps
// iteration untraced.
func (it *Iter) SetSpan(sp *obs.Span) {
	for _, s := range it.streams {
		s.sp = sp
	}
}

// Iter streams the live records of one snapshot in ascending key order.
// Records in upper levels shadow same-key records below; tombstones hide
// matches without being reported.
type Iter struct {
	streams []*iterStream
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
		best := -1
		var bestKey block.Key
		for i, s := range it.streams {
			r, ok, err := s.peek()
			if err != nil {
				it.err = err
				it.done = true
				return false
			}
			if !ok {
				continue
			}
			if best == -1 || r.Key < bestKey {
				best, bestKey = i, r.Key
			}
		}
		if best == -1 {
			it.done = true
			return false
		}
		r, _, _ := it.streams[best].peek()
		for _, s := range it.streams {
			s.skipKey(bestKey)
		}
		if !r.Tombstone {
			it.key, it.val = r.Key, r.Payload
			return true
		}
	}
}

// Key returns the current record's key. Valid after Next returned true.
func (it *Iter) Key() block.Key { return it.key }

// Value returns the current record's payload. Valid after Next returned
// true.
func (it *Iter) Value() []byte { return it.val }

// Err returns the first error the iteration hit, if any.
func (it *Iter) Err() error { return it.err }

// iterStream streams records of one level (or L0 when dev is nil) within
// the iteration bounds.
type iterStream struct {
	// L0 mode: pre-collected records.
	recs []block.Record
	pos  int
	// Level mode: walk metas[blk:blkEnd), loading lazily; reads count.
	dev         storage.Device
	cache       *cache.Cache // classification only; may be nil
	sp          *obs.Span    // latency attribution; may be nil
	metas       []btree.BlockMeta
	blk, blkEnd int
	cur         []block.Record
	curPos      int
	lo, hi      block.Key
}

func (s *iterStream) peek() (block.Record, bool, error) {
	if s.dev == nil {
		if s.pos < len(s.recs) {
			return s.recs[s.pos], true, nil
		}
		return block.Record{}, false, nil
	}
	for {
		if s.cur != nil && s.curPos < len(s.cur) {
			r := s.cur[s.curPos]
			if r.Key > s.hi {
				return block.Record{}, false, nil
			}
			if r.Key < s.lo {
				s.curPos++
				continue
			}
			return r, true, nil
		}
		if s.blk >= s.blkEnd {
			return block.Record{}, false, nil
		}
		if s.sp != nil {
			if s.cache.Contains(s.metas[s.blk].ID) {
				s.sp.To(obs.PhaseCacheRead)
			} else {
				s.sp.To(obs.PhaseDevRead)
			}
		}
		b, err := s.dev.Read(s.metas[s.blk].ID)
		if s.sp != nil {
			s.sp.To(obs.PhaseKWayMerge)
		}
		if err != nil {
			return block.Record{}, false, err
		}
		s.blk++
		s.cur, s.curPos = b.Records(), 0
	}
}

func (s *iterStream) skipKey(k block.Key) {
	if s.dev == nil {
		if s.pos < len(s.recs) && s.recs[s.pos].Key == k {
			s.pos++
		}
		return
	}
	if s.cur != nil && s.curPos < len(s.cur) && s.cur[s.curPos].Key == k {
		s.curPos++
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
				blk, err := v.PeekBlock(m.ID)
				if err != nil {
					return fmt.Errorf("core: L%d run %d block %d: %w", lv.Number, ri, j, err)
				}
				if got := btree.MetaFor(m.ID, blk); got != m {
					return fmt.Errorf("core: L%d run %d block %d stale fence pointer: meta %+v vs contents %+v",
						lv.Number, ri, j, m, got)
				}
			}
		}
	}
	return nil
}
