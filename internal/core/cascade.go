package core

// Overflow-cascade stepping. Mutations (ops.go) only land records in L0;
// the cascade that restores every level's capacity bound runs one step at
// a time, driven by internal/compaction — inline by Driver for a bare tree
// (the paper's cost model) or from a DB's scheduler goroutine. The lsmlint
// compaction-step rule keeps these entry points out of foreground packages
// so merges cannot creep back into the write path.
//
// A step runs in three phases:
//
//   - PlanStep picks the firing level. A step out of L0 captures the
//     memtable snapshot its window will be chosen from, in O(1).
//   - ExecuteStep lets the policy choose the window, reads the inputs,
//     merges, writes and filters the output blocks, and builds the new
//     level image. It changes nothing a reader or writer sees: it works on
//     copies of the levels, and the blocks it frees wait for the install.
//   - InstallStep removes from L0 the window's records no writer has
//     rewritten since the snapshot, swaps in the new level image and
//     publishes a snapshot, all in one critical section against readers'
//     captures, and queues the inputs as deferred frees.
//
// The caller holds two locks. The writer lock guards L0 and the installed
// level image: ApplyBatch runs under it, and so do PlanStep and
// InstallStep. The merge lock guards the storage levels, the policy and
// the step in flight: every phase runs under it, and so does every other
// storage-level operation (RepairBlock, ForceGrow, ResetStats, Validate,
// ValidateAccounting). ExecuteStep holds only the merge lock, so writes
// and reads proceed during a step's block I/O. Lock order: merge lock,
// then writer lock. A tree driven from one goroutine needs neither. The
// tree's own viewMu and L0 mutex (view.go) order readers' captures
// against ApplyBatch, PlanStep's snapshot and InstallStep.

import (
	"errors"
	"fmt"
	"time"

	"lsmssd/internal/block"
	"lsmssd/internal/level"
	"lsmssd/internal/memtable"
	"lsmssd/internal/merge"
)

// CompactionBacklog counts the merge sources the overflow rule fires on
// (L0 plus every firing storage level; see fires): the scheduler's queue
// depth and its wake predicate — zero means a cascade step would be a
// no-op. It reads L0 and the installed level image: writer lock.
func (t *Tree) CompactionBacklog() int {
	n := t.levelBacklog
	if t.fires(0) {
		n++
	}
	return n
}

// stepKind is what a step does; the layout axis decides it per level:
//
//   - L0 flushes into a leveled L1 through the policy-driven merge, or is
//     written out as a fresh sorted run when L1 is tiered;
//   - a tiered internal level merges all its runs into one new run of the
//     level below (the layout's whole-level merge);
//   - a leveled internal level merges a policy-chosen window downward;
//   - the bottom consolidates its runs in place when it is tiered and
//     fired on run count alone, and otherwise grows the tree.
type stepKind uint8

const (
	stepMergeMem    stepKind = iota // a window of L0 into a leveled L1
	stepFlushMem                    // all of L0 as a fresh run of a tiered L1
	stepMergeLevel                  // a window of leveled L_i into L_{i+1}
	stepMergeTiered                 // every run of tiered L_i into L_{i+1}
	stepConsolidate                 // the tiered bottom's runs into one
	stepGrow                        // a fresh level above the bottom
)

// Step is one cascade step between its phases: PlanStep returns it,
// ExecuteStep and then InstallStep consume it.
type Step struct {
	kind stepKind
	from int // source level, 0 = L0
	full bool

	// A step out of L0: the memtable as planned and the window [lo, hi]
	// taken from it.
	snap   *memtable.Snapshot
	lo, hi block.Key

	// A leveled storage-level merge: the source window [xFrom, xTo).
	xFrom, xTo int

	tr   mergeTrace
	hold time.Duration // time spent in PlanStep and InstallStep, when traced

	// Filled by ExecuteStep.
	saved                []*slot     // the levels before the step, restored if it fails
	levels               []LevelView // the image InstallStep installs
	backlog              int         // storage levels firing in that image
	merged               bool        // the step merged (every kind but stepGrow)
	to                   int         // target level
	xBlocks              int         // source blocks merged
	res                  merge.Result
	srcRepairW, srcCompW int
	records              int // L0 records the step moved down (FlushEvent)
}

// CompactionStep executes at most one step of the overflow cascade — its
// three phases back to back — and reports whether it acted. The step is
// the shallowest firing storage level's, and L0's only once no storage
// level fires: the cascade an L0 merge set off completes before the next
// L0 merge begins, as in the inline engine, where each request ran its
// whole cascade. While a step executes, writers refill L0, so L0 may fire
// again at every install; served first, it would starve the levels below
// and let them grow far past their capacity. A write of one record makes
// only one source fire at a time, so driving steps to quiescence after
// every mutation reproduces the synchronous engine's merge sequence, and
// (under leveling) its BlocksWritten, byte for byte. Each completed (and
// audited) step publishes a fresh read snapshot, so concurrent readers
// observe every intermediate cascade state but never a half-applied merge.
func (t *Tree) CompactionStep() (acted bool, err error) {
	st := t.PlanStep()
	if st == nil {
		return false, nil
	}
	if err := t.ExecuteStep(st); err != nil {
		return false, err
	}
	return true, t.InstallStep(st)
}

// RunCascade drives CompactionStep until the tree is quiescent or a step
// fails. Restore uses it to complete any cascade a shutdown interrupted;
// internal/compaction's Driver runs it after every mutation.
func (t *Tree) RunCascade() error {
	for {
		acted, err := t.CompactionStep()
		if err != nil || !acted {
			return err
		}
	}
}

// PlanStep chooses the next cascade step, or returns nil when no level
// fires. Writer and merge locks, for O(levels): the policy's window choice
// waits for ExecuteStep.
func (t *Tree) PlanStep() *Step {
	st := t.plan()
	if st != nil && st.tr.traced {
		st.hold = time.Since(st.tr.start)
	}
	return st
}

func (t *Tree) plan() *Step {
	tr := t.beginMergeTrace()
	for i := 1; i <= len(t.slots); i++ {
		if !t.fires(i) {
			continue
		}
		st := &Step{tr: tr, from: i, full: true}
		switch {
		case i == len(t.slots):
			st.kind = stepGrow
			if t.tiered(i) && t.slots[i-1].requiredBlocks() < t.cfg.capacityBlocks(i) {
				// The tiered bottom fired on its run budget while its
				// records still fit: fold the runs into one in place.
				st.kind = stepConsolidate
			}
		case t.tiered(i):
			st.kind = stepMergeTiered
		default:
			st.kind = stepMergeLevel
		}
		return st
	}
	if t.fires(0) {
		t.memMu.Lock()
		snap := t.mem.Snapshot()
		t.memMu.Unlock()
		st := &Step{tr: tr, kind: stepMergeMem, snap: snap, hi: ^block.Key(0), full: true}
		if t.tiered(1) {
			st.kind = stepFlushMem
		}
		return st
	}
	return nil
}

// choose lets the policy pick the step's window and gates it on the
// quarantine, before ExecuteStep copies anything.
func (t *Tree) choose(st *Step) error {
	if st.snap != nil {
		t.setMemMetas(st.snap)
	}
	switch st.kind {
	case stepMergeMem:
		return t.chooseMergeFromMem(st)
	case stepFlushMem:
		st.tr.xTo = len(t.SourceMetas(0))
	case stepMergeLevel:
		return t.chooseMergeFromLevel(st)
	case stepMergeTiered:
		return t.chooseMergeTieredLevel(st)
	case stepConsolidate:
		return t.chooseConsolidateBottom(st)
	}
	return nil
}

// ExecuteStep does the step's block I/O against copies of the levels.
// Merge lock only: writers and readers run meanwhile. On failure the levels
// are left as they were, the blocks the step wrote are freed, and L0 was
// never touched.
func (t *Tree) ExecuteStep(st *Step) error {
	if err := t.choose(st); err != nil {
		return err
	}
	st.saved = t.slots
	t.slots = cloneSlots(st.saved)
	var err error
	switch st.kind {
	case stepMergeMem:
		err = t.mergeFromMem(st)
	case stepFlushMem:
		err = t.flushMemToRun(st)
	case stepMergeLevel:
		err = t.mergeFromLevel(st)
	case stepMergeTiered:
		err = t.mergeTieredLevel(st)
	case stepConsolidate:
		err = t.consolidateBottom(st)
	case stepGrow:
		t.grow()
	}
	if err != nil {
		return errors.Join(err, t.abort(st))
	}
	st.levels, st.backlog = t.levelImage()
	return nil
}

// abort undoes a failed ExecuteStep: the levels it copied are dropped, the
// blocks it wrote are freed at once (no snapshot ever referenced them), and
// the frees it queued are forgotten — those blocks still belong to the
// levels.
func (t *Tree) abort(st *Step) error {
	t.slots = st.saved
	var errs []error
	for _, id := range t.written {
		if t.blooms != nil {
			t.blooms.Drop(id)
		}
		if err := t.dev.Free(id); err != nil {
			errs = append(errs, fmt.Errorf("core: freeing block %d of a failed merge: %w", id, err))
		}
	}
	t.written, t.pending = nil, nil
	return errors.Join(errs...)
}

// InstallStep makes an executed step visible. Writer and merge locks.
// Records of the L0 window that a write replaced while the step executed
// stay in L0, where they shadow the merged copies.
func (t *Tree) InstallStep(st *Step) error {
	var start time.Time
	if st.tr.traced {
		start = time.Now()
	}
	t.install(st)
	if st.tr.traced {
		st.hold += time.Since(start)
	}
	if st.merged {
		t.emitMerge(st)
	}
	return t.audit()
}

// window returns the step's L0 records, as the snapshot holds them.
func (st *Step) window() []block.Record {
	var recs []block.Record
	if st.full {
		recs = make([]block.Record, 0, st.snap.Len())
	}
	c := st.snap.Cursor(st.lo, st.hi)
	for r, ok := c.Peek(); ok; r, ok = c.Peek() {
		recs = append(recs, r)
		c.Advance()
	}
	return recs
}

// setMerged records what the step's merge did, for the events InstallStep
// emits.
func (st *Step) setMerged(to, xBlocks int, res merge.Result, srcRepairW, srcCompW int) {
	st.merged, st.to, st.xBlocks, st.res = true, to, xBlocks, res
	st.srcRepairW, st.srcCompW = srcRepairW, srcCompW
}

// cloneSlots copies the slots and their runs for a step to change.
func cloneSlots(slots []*slot) []*slot {
	out := make([]*slot, len(slots))
	for i, s := range slots {
		c := *s
		c.runs = make([]*level.Level, len(s.runs))
		for j, r := range s.runs {
			c.runs[j] = r.Clone()
		}
		out[i] = &c
	}
	return out
}
