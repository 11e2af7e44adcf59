// Package invariant audits a live tree against the paper's correctness
// constraints (Thonangi & Yang, ICDE 2017, Section II). It is the runtime
// half of the repository's analysis layer (cmd/lsmlint is the static
// half): where package-local Validate methods spot-check their own
// structures, CheckTree asserts the paper-level contract across the whole
// tree, with errors naming the violated constraint.
//
// Audited constraints, per sorted run of each storage level Li (under
// leveling every level is exactly one run, so "per run" reduces to the
// paper's per-level constraints):
//
//   - fences: block metadata in strict key order with disjoint ranges,
//     every block non-empty, record totals consistent (Section II-A);
//   - pairwise: any two consecutive data blocks hold strictly more than B
//     records (Section II-B, constraint 2);
//   - level-wise: waste factor ≤ ε, with the two standing exemptions
//     (single-block runs, and runs packed to within one block)
//     (Section II-B, constraint 1);
//   - size: S(Li) ≤ (1+ε)·Ki·B records summed over the level's runs, the
//     level capacity under maximal allowed waste (Section II-B);
//   - layout: a leveled level holds exactly one run — always, even
//     mid-cascade — and a tiered level at most its run budget T
//     (steady-state only; a cascade may transiently exceed it);
//   - fence/content consistency: stored blocks match their cached fence
//     metadata, records inside each block sorted and within range, and
//     the B+tree fence search locates every block (Section III-C);
//   - bottom level: no surviving tombstones when the bottom is leveled
//     (a tiered bottom's older runs legitimately hold tombstones that
//     shadow runs below them until the level is consolidated);
//   - device: live-block accounting agrees with the levels' references.
//
// Wiring: core.Config.Auditor runs a check after every merge and level
// growth; the public Options.Paranoid flag installs this package there
// and additionally asserts the steady-state bounds after every request.
package invariant

import (
	"fmt"

	"lsmssd/internal/btree"
	"lsmssd/internal/core"
	"lsmssd/internal/policy"
)

// Options selects the audit strictness.
type Options struct {
	// MidCascade relaxes the level-size and memtable bounds to admit
	// in-flight records: an audit run between the merges of one overflow
	// cascade sees levels that are legitimately over capacity until the
	// cascade reaches them (a merge may land up to a full upstream level
	// before the target's own overflow is handled). Callers key this off
	// scheduler state (is a cascade outstanding?), not call position.
	MidCascade bool
	// L0CapacityBlocks overrides the memtable capacity the audit assumes,
	// in blocks; zero means K0. The DB's compaction scheduler admits writes
	// into L0 past K0 up to the stall gate's stop threshold, 4·K0, so
	// scheduler-keyed audits pass compaction.StopBlocks here. A nonzero
	// value together with MidCascade also waives the per-level size bound:
	// with writers admitted concurrently, the inflow a level accumulates
	// between its own compactions is paced by backpressure, not statically
	// bounded (the waste, pairwise, fence, tombstone, and accounting
	// constraints still hold and are checked).
	L0CapacityBlocks int
	// SkipContents skips reading data blocks, checking fence metadata
	// only. Metadata checks are O(blocks); content checks are O(records)
	// of device Peek traffic (uncounted, but real work).
	SkipContents bool
}

// CheckTree runs the strict, full audit: steady-state bounds and block
// contents. Use between operations (never mid-cascade).
func CheckTree(t *core.Tree) error { return Check(t, Options{}) }

// Check audits every level of the live tree under the given options: the
// level image the tree would install now, then what only the live levels
// know (index aggregates and, unless skipped, block contents), then the
// device's live-block accounting. The returned error names the first
// violated constraint. The caller holds the tree's merge lock, and its
// writer lock too unless MidCascade is set (the strict L0 bound reads the
// memtable).
func Check(t *core.Tree, o Options) error {
	memLen := 0
	if !o.MidCascade {
		memLen = t.Memtable().Len()
	}
	if err := checkLevels(t.Config(), t.Layout(), memLen, t.LevelImage(), o); err != nil {
		return err
	}
	for i := 1; i < t.Height(); i++ {
		runs := t.Runs(i)
		for ri, l := range runs {
			// The index aggregates and — unless skipped — every stored
			// block against its fence.
			validate := l.ValidateContents
			if o.SkipContents {
				validate = l.Validate
			}
			if err := validate(); err != nil {
				return fmt.Errorf("invariant: %s: %w", runName(i, ri, len(runs)), err)
			}
		}
	}
	// Blocks removed by a merge stay live on the device until no read
	// snapshot can reference them; the deferred-free backlog is therefore
	// part of the accounting identity, not a leak.
	if err := t.ValidateAccounting(); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	return nil
}

// CheckView audits a published snapshot's metadata: the level image and
// the memtable a writer sees, with no lock beyond the view's reference.
// Block contents and device accounting are the live audit's (Check); o's
// SkipContents is implied.
func CheckView(v *core.View, o Options) error {
	return checkLevels(v.Config(), v.Layout(), v.MemLen(), v.Levels(), o)
}

func runName(level, run, runs int) string {
	if runs > 1 {
		return fmt.Sprintf("L%d run %d", level, run)
	}
	return fmt.Sprintf("L%d", level)
}

// checkLevels audits a level image: the L0 bound (unless MidCascade), and
// per level the layout's run count, each run's Section II constraints, its
// capacity label, fence search, bottom tombstones, and the size bound.
func checkLevels(cfg core.Config, lay policy.Layout, memLen int, levels []core.LevelView, o Options) error {
	b := cfg.BlockCapacity
	eps := cfg.Epsilon

	if !o.MidCascade {
		k0 := cfg.K0
		if o.L0CapacityBlocks > k0 {
			// One extra block of slack: admission checks L0's size before
			// taking the writer lock, so concurrent writers can overshoot
			// the gate by their in-flight records.
			k0 = o.L0CapacityBlocks + 1
		}
		if cap := k0 * b; memLen > cap {
			return fmt.Errorf("invariant: L0 holds %d records, capacity %d blocks × B = %d", memLen, k0, cap)
		}
	}

	height := len(levels) + 1
	capacity := func(i int) int { // K_i = K0·Γ^i
		k := cfg.K0
		for ; i > 0; i-- {
			k *= cfg.Gamma
		}
		return k
	}
	for _, lv := range levels {
		i, runs := lv.Number, lv.Runs
		tiered := lay.Tiered(i, height)
		maxRuns := lay.MaxRuns(i, height)

		// Layout bound on the run count. A leveled level is one sorted run
		// by construction — no merge step ever leaves it otherwise, so the
		// check holds even mid-cascade. A tiered level may transiently
		// exceed its budget T while the cascade that drains it is pending.
		if !tiered && len(runs) != 1 {
			return fmt.Errorf("invariant: leveled L%d holds %d sorted runs, want exactly 1", i, len(runs))
		}
		if tiered && !o.MidCascade && len(runs) > maxRuns {
			return fmt.Errorf("invariant: tiered L%d holds %d sorted runs, exceeding its budget T = %d",
				i, len(runs), maxRuns)
		}

		capBlocks := capacity(i)
		if lv.Capacity != capBlocks {
			return fmt.Errorf("invariant: L%d capacity labelled %d blocks, want K%d = K0·Γ^%d = %d",
				i, lv.Capacity, i, i, capBlocks)
		}
		for ri, metas := range runs {
			at := runName(i, ri, len(runs))
			// The paper's per-run constraints: fences, block capacity,
			// pairwise and level-wise waste.
			if err := btree.ValidateMetas(metas, b, eps); err != nil {
				return fmt.Errorf("invariant: %s: %w", at, err)
			}

			// Bottom-level tombstones: only a leveled bottom guarantees
			// none survive. A tiered bottom's older runs keep tombstones
			// that shadow runs below them until consolidation folds the
			// level into one run.
			if i == height-1 && !tiered {
				for j, m := range metas {
					if m.Tombstones > 0 {
						return fmt.Errorf("invariant: bottom level %s block %d carries %d tombstone(s)", at, j, m.Tombstones)
					}
				}
			}

			for j, m := range metas {
				if pos, ok := btree.FindIn(metas, m.Min); !ok || pos != j {
					return fmt.Errorf("invariant: %s fence search for block %d min key %d landed at (%d, %v)",
						at, j, m.Min, pos, ok)
				}
				if pos, ok := btree.FindIn(metas, m.Max); !ok || pos != j {
					return fmt.Errorf("invariant: %s fence search for block %d max key %d landed at (%d, %v)",
						at, j, m.Max, pos, ok)
				}
			}
		}

		// Size bound S(Li) ≤ (1+ε)·Ki·B, summed over the level's runs.
		// Mid-cascade, a level may additionally hold what upstream merges
		// just pushed into it: the inflow before its own overflow is
		// handled is below K_{i-1}·B·Γ/(Γ−1) ≤ 2·K_{i-1}·B for Γ ≥ 2 under
		// leveling; a tiered level receives whole runs and may hold up to
		// its full budget, so the slack is T·K_{i-1}·B. Under background
		// compaction (L0CapacityBlocks set) that inflow has no static
		// bound mid-cascade — see Options — so the check is waived there.
		if !o.MidCascade || o.L0CapacityBlocks == 0 {
			bound := int(float64(capBlocks*b) * (1 + eps))
			if o.MidCascade {
				slack := 2
				if tiered {
					slack = maxRuns
				}
				bound += slack * capacity(i-1) * b
			}
			if lv.Records > bound {
				return fmt.Errorf("invariant: L%d holds %d records, exceeding (1+ε)·K%d·B = %d",
					i, lv.Records, i, bound)
			}
		}
	}
	return nil
}
