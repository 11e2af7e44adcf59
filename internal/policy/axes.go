package policy

import "fmt"

// This file defines the orthogonal axes of the compaction design space
// (after Sarkar et al., "Constructing and Analyzing the LSM Compaction
// Design Space") that the engine varies: Granularity (how much of a level
// moves — the paper's merge policies, policy.go), Movement (rewrite vs
// block-preserving, the paper's "-P" axis), and Layout (how many sorted
// runs a level may hold: leveling, tiering, lazy leveling). When a level
// compacts is not an axis: core.Tree fires the paper's overflow rule.

// --- Layout --------------------------------------------------------------

// LayoutKind identifies how storage levels arrange their sorted runs.
type LayoutKind int

const (
	// Leveling keeps exactly one sorted run per level — the paper's model,
	// and the layout every pre-existing policy suite runs under.
	Leveling LayoutKind = iota
	// Tiering lets every level accumulate up to T runs before its runs are
	// merged together and pushed down — one write per record per level, at
	// the price of T-way read fan-out.
	Tiering
	// LazyLeveling tiers every level except the last, which stays leveled:
	// tiering's write savings on the upper levels, leveling's point- and
	// range-read behavior on the level holding most of the data.
	LazyLeveling
)

// String returns the layout name used in flags and reports.
func (k LayoutKind) String() string {
	switch k {
	case Tiering:
		return "tiering"
	case LazyLeveling:
		return "lazy"
	}
	return "leveling"
}

// DefaultTierRuns is T when a tiered layout is requested without one.
const DefaultTierRuns = 4

// Layout is the layout axis: a kind plus, for tiered kinds, the run
// budget T per level. The zero value is leveling.
type Layout struct {
	Kind     LayoutKind
	TierRuns int // T; ignored under Leveling, defaulted when 0
}

// ParseLayout maps a flag string ("leveling", "tiering", "lazy") to a
// layout kind.
func ParseLayout(s string) (LayoutKind, error) {
	switch s {
	case "leveling":
		return Leveling, nil
	case "tiering":
		return Tiering, nil
	case "lazy", "lazy-leveling":
		return LazyLeveling, nil
	}
	return Leveling, fmt.Errorf("policy: unknown layout %q (want leveling, tiering, or lazy)", s)
}

// withDefaults fills TierRuns for tiered kinds.
func (l Layout) withDefaults() Layout {
	if l.Kind != Leveling && l.TierRuns < 2 {
		l.TierRuns = DefaultTierRuns
	}
	return l
}

// Normalized returns the canonical form of the layout: the default T
// filled in for tiered kinds, TierRuns zeroed under leveling (where it
// is unused). Two layouts behave identically iff their normalized forms
// are equal — the form checkpoints persist and reopens compare.
func (l Layout) Normalized() Layout {
	if l.Kind == Leveling {
		return Layout{Kind: Leveling}
	}
	return l.withDefaults()
}

// Tiered reports whether storage level number `level` holds multiple runs
// under this layout, in a tree of the given height (levels 0..height-1,
// level 0 the memtable).
func (l Layout) Tiered(level, height int) bool {
	switch l.Kind {
	case Tiering:
		return true
	case LazyLeveling:
		return level < height-1
	}
	return false
}

// MaxRuns returns the run budget of storage level `level`: 1 for leveled
// levels, T for tiered ones.
func (l Layout) MaxRuns(level, height int) int {
	if !l.Tiered(level, height) {
		return 1
	}
	return l.withDefaults().TierRuns
}

// String renders the layout for reports: "leveling", "tiering(4)", ...
func (l Layout) String() string {
	if l.Kind == Leveling {
		return "leveling"
	}
	return fmt.Sprintf("%s(%d)", l.Kind, l.withDefaults().TierRuns)
}

// --- Movement ------------------------------------------------------------

// Movement is the data-movement axis: whether merges may adopt input
// blocks unchanged into their output (the paper's block-preserving merge)
// or must rewrite every record ("-P" variants).
type Movement int

const (
	// PreserveBlocks reuses input blocks in the merge output whenever key
	// ranges and the waste constraints allow.
	PreserveBlocks Movement = iota
	// Rewrite always writes fresh output blocks.
	Rewrite
)
