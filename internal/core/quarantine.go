package core

// Quarantine: corrupt-block containment. A block whose device copy fails
// its integrity check is quarantined — recorded by ID, pinned in place,
// and excluded from merges — instead of letting ErrCorrupt poison every
// compaction that touches its run. Exclusion is run-granular: a merge
// whose source or target run holds a quarantined block refuses to start
// with ErrQuarantined (merges may compact a whole run, so any finer
// granularity would still read the damaged block). Pinning follows from
// exclusion: a block no merge may select is a block no merge will free.
//
// The scrubber resolves quarantines: when a surviving copy exists (the
// shard's buffer cache still holds the block read before the damage),
// RepairBlock rewrites it into a fresh device block and the quarantine
// lifts; otherwise the block stays quarantined and the shard stays
// Degraded until an operator intervenes or a reopen rebuilds state.
//
// Fast-path cost: a single atomic load per merge while the quarantine is
// empty, so BlocksWritten stays byte-identical across policy suites when
// no faults are injected.

import (
	"errors"
	"fmt"
	"lsmssd/internal/block"
	"sort"
	"sync"
	"sync/atomic"

	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/storage"
)

// ErrQuarantined is returned by merge steps whose window overlaps a
// quarantined block. The compaction layer parks it like any merge error;
// the shard's health layer classifies it as a write-side demotion.
var ErrQuarantined = errors.New("core: merge window overlaps quarantined block")

// QuarantineRecord describes one quarantined block.
type QuarantineRecord struct {
	ID     storage.BlockID
	Level  int    // 1-based level number at quarantine time
	Reason string // why the block was quarantined (error text)
}

// quarantineSet is the Tree's quarantine state. Its own mutex (not the
// merge lock) so the scrubber goroutine can add entries while reads and
// stats enumerate them; n mirrors len(m) atomically for the merge fast
// path.
type quarantineSet struct {
	mu sync.Mutex
	m  map[storage.BlockID]QuarantineRecord
	n  atomic.Int64
}

// Quarantine records id as damaged. Idempotent; reports whether the
// entry is new.
func (t *Tree) Quarantine(id storage.BlockID, levelNo int, reason string) bool {
	q := &t.quar
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.m == nil {
		q.m = make(map[storage.BlockID]QuarantineRecord)
	}
	if _, ok := q.m[id]; ok {
		return false
	}
	q.m[id] = QuarantineRecord{ID: id, Level: levelNo, Reason: reason}
	q.n.Store(int64(len(q.m)))
	return true
}

// Unquarantine lifts id's quarantine (after a successful repair, or when
// the block is no longer referenced by the tree).
func (t *Tree) Unquarantine(id storage.BlockID) {
	q := &t.quar
	q.mu.Lock()
	delete(q.m, id)
	q.n.Store(int64(len(q.m)))
	q.mu.Unlock()
}

// Quarantined returns the quarantine's contents, ordered by block ID.
func (t *Tree) Quarantined() []QuarantineRecord {
	q := &t.quar
	q.mu.Lock()
	out := make([]QuarantineRecord, 0, len(q.m))
	for _, r := range q.m {
		out = append(out, r)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QuarantinedCount returns the number of quarantined blocks. Lock-free.
func (t *Tree) QuarantinedCount() int { return int(t.quar.n.Load()) }

// quarantineCheck returns ErrQuarantined (wrapped with the offending
// block) when any of runs holds a quarantined block. Merge entry points
// call it before touching the device; the empty-quarantine fast path is
// one atomic load.
func (t *Tree) quarantineCheck(levelNo int, runs ...*level.Level) error {
	if t.quar.n.Load() == 0 {
		return nil
	}
	q := &t.quar
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range runs {
		for _, m := range r.Index().All() {
			if rec, ok := q.m[m.ID]; ok {
				return fmt.Errorf("core: L%d merge would touch quarantined block %d (%s): %w",
					levelNo, rec.ID, rec.Reason, ErrQuarantined)
			}
		}
	}
	return nil
}

// locateBlock finds id in the live tree, returning its run, 1-based
// level number, and position. ok is false when no level references id
// (it was merged away or freed since quarantine).
func (t *Tree) locateBlock(id storage.BlockID) (run *level.Level, levelNo, pos int, ok bool) {
	for i, s := range t.slots {
		for _, r := range s.runs {
			for p, m := range r.Index().All() {
				if m.ID == id {
					return r, i + 1, p, true
				}
			}
		}
	}
	return nil, 0, 0, false
}

// RepairBlock attempts to rewrite quarantined block id from a surviving
// copy. The only surviving copy the layout offers is the shard's buffer
// cache (blocks are single-replica on the device): when the cache still
// holds the block and its contents match the index metadata, the records
// are written into a fresh device block, the index entry is swapped, and
// the quarantine lifts. Returns repaired=true when the quarantine was
// resolved — including the degenerate case where the tree no longer
// references the block at all — and false when the block stays
// quarantined. Callers hold the merge lock (the repair mutates a level).
func (t *Tree) RepairBlock(id storage.BlockID) (repaired bool, err error) {
	run, _, pos, ok := t.locateBlock(id)
	if !ok {
		// No level references the block: the quarantine outlived the
		// damage (e.g. the block was already replaced). Resolved.
		t.Unquarantine(id)
		return true, nil
	}
	m := run.Index().All()[pos]
	// t.dev is the cache when one is configured: Peek serves the cached
	// copy without touching the damaged device block, and falls through
	// to the device (surfacing ErrCorrupt) when the block is not cached.
	blk := new(block.Block)
	if perr := t.dev.Peek(id, blk); perr != nil {
		return false, nil
	}
	if blk.Len() != m.Count || blk.MinKey() != m.Min || blk.MaxKey() != m.Max {
		// The surviving copy does not match what the index says the
		// block held; trusting it would repair corruption with
		// corruption.
		return false, nil
	}
	nm, werr := run.WriteNew(blk)
	if werr != nil {
		return false, fmt.Errorf("core: repair of block %d: %w", id, werr)
	}
	if rerr := run.ReplaceRange(pos, pos+1, []btree.BlockMeta{nm}, nil); rerr != nil {
		return false, fmt.Errorf("core: repair of block %d: %w", id, rerr)
	}
	t.Unquarantine(id)
	t.installLevels(t.levelImage())
	return true, t.audit()
}
