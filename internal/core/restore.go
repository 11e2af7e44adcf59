package core

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
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
	v.mem.Ascend(0, ^block.Key(0), func(r block.Record) bool {
		st.Memtable = append(st.Memtable, r)
		return true
	})
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
			if err := s.runs[j].ReplaceRange(0, 0, metas, nil); err != nil {
				return nil, err
			}
			if err := s.runs[j].Validate(); err != nil {
				return nil, fmt.Errorf("core: restore L%d run %d: %w", i+1, j, err)
			}
		}
	}
	for _, r := range st.Memtable {
		t.mem.Put(r)
	}
	if t.blooms != nil {
		// Filters are not persisted: rebuild one per live block from an
		// uncounted Peek of the uncached device, before the cascade below so
		// the blocks it preserves keep theirs. A block that fails its
		// checksum gets none; a Get then reads it and surfaces the error.
		for _, runs := range st.Runs {
			for _, metas := range runs {
				for _, m := range metas {
					if blk, err := cfg.Device.Peek(m.ID); err == nil {
						t.blooms.Add(m.ID, blk)
					}
				}
			}
		}
	}
	// Complete any overflow cascade the shutdown interrupted: a Close can
	// land mid-cascade (the background scheduler stops after its current
	// step), so the manifest may describe levels legitimately over
	// capacity. Reopening restores the steady-state bounds before the
	// first request.
	if err := t.RunCascade(); err != nil {
		return nil, err
	}
	t.publish() // expose the restored levels and memtable to readers
	return t, nil
}
