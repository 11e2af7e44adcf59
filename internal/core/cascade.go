package core

// Overflow-cascade stepping. Mutations (ops.go) only land records in L0;
// the cascade that restores every level's capacity bound runs through the
// resumable steps below, driven by internal/compaction — inline by Driver
// for a bare tree (the paper's cost model) or from a DB's scheduler
// goroutine. The lsmlint compaction-step rule keeps these entry points
// out of foreground packages so merges cannot creep back into the write
// path.
//
// All three methods are writer-side: callers serialize them with the
// tree's other mutations.

// CompactionBacklog counts the merge sources the overflow rule fires on
// (L0 plus every firing storage level; see fires): the scheduler's queue
// depth and its wake predicate — zero means a cascade run would be a no-op.
func (t *Tree) CompactionBacklog() int {
	n := 0
	for i := 0; i <= len(t.slots); i++ {
		if t.fires(i) {
			n++
		}
	}
	return n
}

// CompactionStep executes at most one step of the overflow cascade and
// reports whether it acted. Step order matches the original inline
// cascade exactly — L0 first, then the shallowest firing storage level —
// so driving steps to quiescence after every mutation reproduces the
// synchronous engine's merge sequence, and (under leveling) its
// BlocksWritten, byte for byte. Each completed (and audited) step
// publishes a fresh read snapshot, so concurrent readers observe every
// intermediate cascade state but never a half-applied merge.
//
// The step taken at a firing level depends on the layout axis:
//
//   - L0 flushes into a leveled L1 through the policy-driven merge, or is
//     written out as a fresh sorted run when L1 is tiered;
//   - a tiered internal level merges all its runs into one new run of the
//     level below (the layout's whole-level merge);
//   - a leveled internal level merges a policy-chosen window downward, as
//     before;
//   - the bottom consolidates its runs in place when it is tiered and
//     fired on run count alone, and otherwise grows the tree.
func (t *Tree) CompactionStep() (acted bool, err error) {
	if t.fires(0) {
		if t.tiered(1) {
			err = t.flushMemToRun()
		} else {
			err = t.mergeFromMem()
		}
		if err != nil {
			return false, err
		}
		t.publish()
		return true, nil
	}
	for i := 1; i <= len(t.slots); i++ {
		if !t.fires(i) {
			continue
		}
		switch {
		case i == len(t.slots):
			if t.tiered(i) && t.slots[i-1].requiredBlocks() < t.cfg.capacityBlocks(i) {
				// The tiered bottom fired on its run budget while its
				// records still fit: fold the runs into one in place.
				if err := t.consolidateBottom(); err != nil {
					return false, err
				}
			} else {
				t.grow()
				if err := t.audit(); err != nil {
					return false, err
				}
			}
		case t.tiered(i):
			if err := t.mergeTieredLevel(i); err != nil {
				return false, err
			}
		default:
			if err := t.mergeFromLevel(i); err != nil {
				return false, err
			}
		}
		t.publish()
		return true, nil
	}
	return false, nil
}

// RunCascade drives CompactionStep until the tree is quiescent
// (CompactionBacklog zero) or a step fails. Restore uses it to complete
// any cascade a shutdown interrupted; internal/compaction uses it for
// synchronous mode and the experiment harness's Driver.
func (t *Tree) RunCascade() error {
	for {
		acted, err := t.CompactionStep()
		if err != nil || !acted {
			return err
		}
	}
}
