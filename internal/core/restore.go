package core

import (
	"fmt"
	"slices"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/storage"
)

// ExportedState is the tree's reconstructible in-memory state: the block
// metadata of every sorted run of every level (the cached internal B+tree
// nodes) plus the memtable contents. Data blocks themselves live on the
// device. Runs[i] lists level L_{i+1}'s runs newest first; under leveling
// every level has exactly one.
type ExportedState struct {
	Runs     [][][]btree.BlockMeta
	Memtable []block.Record
}

// Export renders the snapshot as the state needed to Restore the tree over
// the same device contents later. It reads only the view's frozen metadata
// and memtable snapshot, so it needs no lock and may run while the writer
// and merges move on — which is what lets a checkpoint write its manifest
// off the write path. The run slices are the view's own (immutable);
// treat them as read-only.
func (v *View) Export() ExportedState {
	st := ExportedState{
		Runs:     make([][][]btree.BlockMeta, len(v.levels)),
		Memtable: make([]block.Record, 0, v.mem.Len()),
	}
	for i := range v.levels {
		st.Runs[i] = v.levels[i].Runs
	}
	c := v.mem.Cursor(0, ^block.Key(0))
	for r, ok := c.Peek(); ok; r, ok = c.Peek() {
		st.Memtable = append(st.Memtable, r)
		c.Advance()
	}
	return st
}

// Restore builds a tree over an existing device from exported state. The
// configuration must match the one the state was exported under (block
// capacity, K0, Γ, ε, layout); the device must already hold every
// referenced block.
func Restore(cfg Config, st ExportedState) (*Tree, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Runs) == 0 {
		return nil, fmt.Errorf("core: restore state has no levels")
	}
	// New starts with one empty level; rebuild the full stack.
	for len(t.slots) < len(st.Runs) {
		t.slots = append(t.slots, newSlot(t.newLevel(len(t.slots)+1)))
	}
	var blk block.Block
	for i, runs := range st.Runs {
		if len(runs) == 0 {
			return nil, fmt.Errorf("core: restore L%d has no runs", i+1)
		}
		if !t.tiered(i+1) && len(runs) > 1 {
			return nil, fmt.Errorf("core: restore L%d has %d runs but the layout levels it", i+1, len(runs))
		}
		s := t.slots[i]
		for j, metas := range runs {
			if j > 0 {
				s.runs = append(s.runs, t.newLevel(i+1))
			}
			own, err := t.checkBlocks(metas, &blk)
			if err != nil {
				return nil, fmt.Errorf("core: restore L%d run %d: %w", i+1, j, err)
			}
			if err := s.runs[j].ReplaceRange(0, 0, own, nil); err != nil {
				return nil, err
			}
			if err := s.runs[j].Validate(); err != nil {
				return nil, fmt.Errorf("core: restore L%d run %d: %w", i+1, j, err)
			}
		}
	}
	t.memMu.Lock()
	for _, r := range st.Memtable {
		t.mem.Put(r)
	}
	t.memMu.Unlock()
	// Complete any overflow cascade the shutdown interrupted: a Close can
	// land mid-cascade (the background scheduler stops after its current
	// step), so the manifest may describe levels legitimately over
	// capacity. Reopening restores the steady-state bounds before the
	// first request.
	if err := t.RunCascade(); err != nil {
		return nil, err
	}
	t.installLevels(t.levelImage()) // expose the restored levels and memtable to readers
	return t, nil
}

// checkBlocks reads every block metas names back with an uncounted Peek of
// the uncached device into blk, and returns a copy of metas with each
// block's Bloom filter built in. The copy is the run's own: Export shares
// the live view's slices, which must not be written.
//
// Each block must still hold what the state says it does: without a
// write-ahead log a checkpoint neither syncs the device nor parks freed
// slots, so after a crash a slot the state names may hold a later merge's
// block, and serving it would return wrong answers with no error. Filters
// are not persisted, so the same read rebuilds each block's, before the
// cascade so the blocks it preserves keep theirs. A block that fails its
// checksum is left to the read path: it gets no filter, and a Get reads it
// and surfaces the error.
func (t *Tree) checkBlocks(metas []btree.BlockMeta, blk *block.Block) ([]btree.BlockMeta, error) {
	own := slices.Clone(metas)
	for x := range own {
		m := &own[x]
		if err := t.cfg.Device.Peek(m.ID, blk); err != nil {
			continue
		}
		if got := btree.MetaFor(m.ID, blk); !got.SameBlock(*m) {
			return nil, fmt.Errorf("block %d holds keys [%d, %d] in %d records, the state names [%d, %d] in %d: %w",
				m.ID, got.Min, got.Max, got.Count, m.Min, m.Max, m.Count, storage.ErrCorrupt)
		}
		if t.blooms != nil {
			m.Filter = t.blooms.Build(blk)
		}
	}
	return own, nil
}
