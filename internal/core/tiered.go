package core

// Tiered-layout merge steps. Under the leveling layout every level is one
// sorted run and merges go through merge.Merge (tree.go); under tiering —
// and in the tiered upper levels of lazy leveling — a level accumulates up
// to MaxRuns independent sorted runs and moves data in whole-run units:
//
//   - flushMemToRun writes L0 out as a fresh run of L1, touching no
//     resident data (the O(1)-write flush that buys tiering its low write
//     amplification);
//   - mergeTieredLevel folds all runs of a firing level into one new run
//     of the level below — or, when the level below is the leveled bottom
//     of lazy leveling, merges them into it through merge.Merge with the
//     movement axis (block preservation) in force;
//   - consolidateBottom folds the tiered bottom's runs into a single run
//     in place, dropping tombstones (nothing remains below to shadow).

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/merge"
)

// buildRun writes blocks (packed by a Builder: key-ordered, shadowing
// already resolved) as a fresh run for level number, returning the run and
// the number of blocks written. All blocks are full except possibly the
// last, so the run trivially satisfies the pairwise and level-wise waste
// constraints.
func (t *Tree) buildRun(number int, blocks []*block.Block) (*level.Level, int, error) {
	run := t.newLevel(number)
	metas := make([]btree.BlockMeta, 0, len(blocks))
	for _, b := range blocks {
		m, err := run.WriteNew(b)
		if err != nil {
			return nil, 0, err
		}
		metas = append(metas, m)
	}
	if err := run.ReplaceRange(0, 0, metas, nil); err != nil {
		return nil, 0, err
	}
	return run, len(blocks), nil
}

// mergedRunBlocks k-way merges the records of runs in key order and packs
// them into in-memory blocks of the tree's capacity, returning the blocks
// and the number of records in them. The runs arrive newest first, so on
// equal keys the earliest run wins — the same shadowing order the read
// path's Iter applies. dropTombstones removes delete markers from the
// output (legal only when nothing below the target can still hold the
// deleted keys). Each run streams through one reused buffer, read through
// ReadAt, so the merge's device reads are counted like any other merge.
func (t *Tree) mergedRunBlocks(runs []*level.Level, dropTombstones bool) ([]*block.Block, int, error) {
	streams := make([]runStream, len(runs))
	for i, r := range runs {
		streams[i].run = r
	}
	bb := block.NewBuilder(t.cfg.BlockCapacity)
	n := 0
	for {
		best := -1
		var bestKey block.Key
		for i := range streams {
			s := &streams[i]
			if err := s.fill(); err != nil {
				return nil, 0, err
			}
			if s.have && (best == -1 || s.rec.Key < bestKey) {
				best, bestKey = i, s.rec.Key
			}
		}
		if best == -1 {
			return bb.Finish(), n, nil
		}
		// The builder copies the record before any stream moves on.
		if r := streams[best].rec; !dropTombstones || !r.Tombstone {
			bb.Add(r)
			n++
		}
		for i := range streams {
			if s := &streams[i]; s.have && s.rec.Key == bestKey {
				s.rec, s.have = s.cur.Next()
			}
		}
	}
}

// runStream walks one run's records block by block.
type runStream struct {
	run  *level.Level
	next int // position of the next block to read
	buf  block.Block
	cur  block.Cursor
	rec  block.Record // the record cur stands on, when have
	have bool
}

// fill reads the run's next block once the current one is exhausted.
func (s *runStream) fill() error {
	for !s.have && s.next < s.run.Blocks() {
		if err := s.run.ReadAt(s.next, &s.buf); err != nil {
			return err
		}
		s.next++
		s.cur = s.buf.Cursor()
		s.rec, s.have = s.cur.Next()
	}
	return nil
}

// drainSlot frees every block of level i's runs (deferred through the
// snapshot protocol), folds their write accounting into the slot's
// retired counters, and leaves the slot with one fresh empty run.
func (t *Tree) drainSlot(i int) error {
	s := t.slots[i-1]
	for _, r := range s.runs {
		if err := r.ReplaceRange(0, r.Blocks(), nil, nil); err != nil {
			return err
		}
		s.retiredWrites += r.BlocksWritten
		s.retiredCompactions += r.Compactions
	}
	s.runs = []*level.Level{t.newLevel(i)}
	return nil
}

// flushMemToRun writes the whole memtable, as the snapshot holds it, out
// as a fresh sorted run of a tiered L1. Unlike mergeFromMem there is no
// policy window: whole-level movement is what the tiered layout buys, and
// no resident data is read or rewritten. Tombstones are dropped only when
// L1 is an empty bottom — then nothing exists for them to shadow.
func (t *Tree) flushMemToRun(st *step) error {
	recs := st.window()
	if len(recs) == 0 {
		return fmt.Errorf("core: empty flush from L0")
	}
	s := t.slots[0]
	if t.bottom(1) && s.records() == 0 {
		live := recs[:0]
		for _, r := range recs {
			if !r.Tombstone {
				live = append(live, r)
			}
		}
		recs = live
	}
	var res merge.Result
	if len(recs) > 0 {
		bb := block.NewBuilder(t.cfg.BlockCapacity)
		for _, r := range recs {
			bb.Add(r)
		}
		run, written, err := t.buildRun(1, bb.Finish())
		if err != nil {
			return err
		}
		s.prepend(run)
		res = merge.Result{BlocksWritten: written, RecordsIn: len(recs)}
	}
	st.records = res.RecordsIn
	st.setMerged(1, st.tr.xTo, res, 0, 0)
	return nil
}

// chooseMergeTieredLevel gates the fold of tiered level i on the quarantine:
// the fold reads every source-run block and may rewrite the leveled
// target, so any quarantined block in either refuses the merge.
func (t *Tree) chooseMergeTieredLevel(st *step) error {
	i := st.from
	checked := append([]*level.Level{}, t.slots[i-1].runs...)
	if !t.tiered(i + 1) {
		checked = append(checked, t.slots[i].newest())
	}
	if err := t.quarantineCheck(i, checked...); err != nil {
		return err
	}
	st.tr.xTo = t.slots[i-1].blocks()
	return nil
}

// mergeTieredLevel folds all runs of tiered level i into the level below:
// one new run when the target is itself tiered, a proper merge.Merge into
// the resident run when the target is the leveled bottom of lazy leveling.
// The source level is left with one fresh empty run.
func (t *Tree) mergeTieredLevel(st *step) error {
	i := st.from
	s := t.slots[i-1]
	xBlocks := s.blocks()
	tgt := t.slots[i]
	var res merge.Result
	if t.tiered(i + 1) {
		// Whole-run movement: tombstones drop only into an empty bottom.
		drop := t.bottom(i+1) && tgt.records() == 0
		blocks, n, err := t.mergedRunBlocks(s.runs, drop)
		if err != nil {
			return err
		}
		if n > 0 {
			run, written, err := t.buildRun(i+1, blocks)
			if err != nil {
				return err
			}
			tgt.prepend(run)
			res = merge.Result{BlocksWritten: written, RecordsIn: n}
		}
	} else {
		blocks, n, err := t.mergedRunBlocks(s.runs, false)
		if err != nil {
			return err
		}
		if n > 0 {
			src := merge.NewBlockSource(blocks)
			res, err = merge.Merge(src, 0, src.NumBlocks(), tgt.newest(), merge.Options{
				Preserve:       t.cfg.Policy.Preserve(),
				DropTombstones: t.bottom(i + 1),
			})
			if err != nil {
				return err
			}
		}
	}
	if err := t.drainSlot(i); err != nil {
		return err
	}
	st.setMerged(i+1, xBlocks, res, 0, 0)
	return nil
}

// chooseConsolidateBottom gates the fold of the tiered bottom's runs.
func (t *Tree) chooseConsolidateBottom(st *step) error {
	n := st.from
	s := t.slots[n-1]
	if err := t.quarantineCheck(n, s.runs...); err != nil {
		return err
	}
	if len(s.runs) < 2 {
		return fmt.Errorf("core: consolidating bottom L%d with %d run(s)", n, len(s.runs))
	}
	st.tr.xTo = s.blocks()
	return nil
}

// consolidateBottom folds the tiered bottom's runs into one: the move the
// layout makes when the bottom's run budget is exhausted but its records
// still fit the level. After consolidation no older run remains for a
// tombstone to shadow, so tombstones are dropped — the tiered analogue of
// a full merge into the bottom. Counted as a compaction of the level.
func (t *Tree) consolidateBottom(st *step) error {
	n := st.from
	s := t.slots[n-1]
	xBlocks := s.blocks()
	blocks, records, err := t.mergedRunBlocks(s.runs, true)
	if err != nil {
		return err
	}
	if err := t.drainSlot(n); err != nil {
		return err
	}
	var res merge.Result
	if records > 0 {
		run, written, err := t.buildRun(n, blocks)
		if err != nil {
			return err
		}
		run.Compactions++
		s.prepend(run)
		res = merge.Result{BlocksWritten: written, RecordsIn: records, CompactionWrites: written}
	}
	st.setMerged(n, xBlocks, res, 0, 0)
	return nil
}
