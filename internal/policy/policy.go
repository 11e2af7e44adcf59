// Package policy models compaction as a point in the design space of
// Sarkar et al.: a Granularity (how much of an overflowing level moves),
// a Movement policy (block-preserving or rewrite — the paper's "-P" axis),
// and a Layout (leveling, tiering, lazy leveling). When a level compacts
// is the paper's overflow rule, stated once in core.Tree.
//
// The merge policies studied in the paper — the classic Full policy, the
// round-robin partial policy RR (≈ LevelDB), the ChooseBest policy (a
// strictly stronger form of HyperLevelDB's), the diagnostic TestMixed
// policy, and the threshold-based Mixed policy of Section IV — are the
// granularity axis; the New* constructors run each of them under the
// leveling layout, and WithLayout moves a policy onto another layout.
package policy

import (
	"fmt"

	"lsmssd/internal/btree"
)

// View is the read-only picture of the tree a policy consults when level
// `from` overflows and a merge into `from+1` must be arranged. Level 0 is
// the memory-resident memtable; its "blocks" are virtual chunks of B
// records.
type View interface {
	// Height returns the number of levels including L0.
	Height() int
	// SourceMetas returns the block metadata of the overflowing level.
	SourceMetas(from int) []btree.BlockMeta
	// TargetMetas returns the block metadata of level from+1.
	TargetMetas(from int) []btree.BlockMeta
	// CapacityBlocks returns K_i for level i.
	CapacityBlocks(level int) int
	// SizeBlocks returns S(L_i), the current size of level i measured in
	// required blocks (⌈records/B⌉).
	SizeBlocks(level int) int
}

// Decision is a policy's choice for one merge. When Full is set the whole
// source level is merged; otherwise the block window [From, To) is.
type Decision struct {
	Full     bool
	From, To int
}

// Granularity is the axis deciding how much of a firing level moves: the
// paper's merge policies (Full, RR, ChooseBest, TestMixed, Mixed) are
// exactly granularity choices, stripped of the preserve flag (the Movement
// axis) and of the layout they run under.
type Granularity interface {
	// Name identifies the granularity in reports ("Full", "ChooseBest", ...).
	Name() string
	// Decide chooses the merge from level `from` into `from+1`.
	Decide(v View, from int) Decision
}

// Policy is a merge policy: one choice per axis. It selects what to merge
// when a level overflows by delegating window selection to its
// granularity. Decide may update granularity state (e.g. RR's cursor); the
// tree guarantees that every returned decision is executed.
type Policy struct {
	gran   Granularity
	move   Movement
	layout Layout
}

// newPolicy runs g under the leveling layout.
func newPolicy(g Granularity, preserve bool) *Policy {
	if preserve {
		return &Policy{gran: g, move: PreserveBlocks}
	}
	return &Policy{gran: g, move: Rewrite}
}

// Name identifies the policy in reports. Leveling keeps the legacy names
// byte-identical ("ChooseBest", "RR-P", ...); non-leveling layouts are
// tagged ("Full@tiering(4)").
func (p *Policy) Name() string {
	n := p.gran.Name() + suffix(p.move == PreserveBlocks)
	if p.layout.Kind != Leveling {
		n += "@" + p.layout.String()
	}
	return n
}

// Preserve reports whether merges run with the block-preserving
// optimization.
func (p *Policy) Preserve() bool { return p.move == PreserveBlocks }

// Decide chooses the merge from level `from` into `from+1`.
func (p *Policy) Decide(v View, from int) Decision { return p.gran.Decide(v, from) }

// LevelsGrew forwards tree growth to the granularity when it keeps
// per-level state (RR's cursors).
func (p *Policy) LevelsGrew(oldBottom int) {
	if n, ok := p.gran.(interface{ LevelsGrew(int) }); ok {
		n.LevelsGrew(oldBottom)
	}
}

// Layout returns the layout axis.
func (p *Policy) Layout() Layout { return p.layout }

// WithLayout returns a copy of the policy running under a different
// layout; granularity and movement are shared.
func (p *Policy) WithLayout(l Layout) *Policy {
	out := *p
	out.layout = l.withDefaults()
	return &out
}

// Mixed returns the Mixed granularity, if the policy has one — the tuning
// surface (tune.go, internal/learn) adjusts τ/β through it.
func (p *Policy) Mixed() (*Mixed, bool) {
	m, ok := p.gran.(*Mixed)
	return m, ok
}

// RR returns the RR granularity, if the policy has one — used by the
// experiment harness to read RR's merge cursor.
func (p *Policy) RR() (*RR, bool) {
	r, ok := p.gran.(*RR)
	return r, ok
}

// windowBlocks returns the partial-merge window size for the given source
// level: ⌊δ·K_from⌋, at least 1, capped at the level's size. The size cap
// uses required blocks (⌈records/B⌉) — the paper's level-size unit — not
// the physical block count: under relaxed storage a fragmented level can
// hold more, partially-filled, blocks than its record population needs,
// and the window must not inflate with that fragmentation.
func windowBlocks(v View, from int, delta float64) int {
	w := int(delta * float64(v.CapacityBlocks(from)))
	if w < 1 {
		w = 1
	}
	if s := v.SizeBlocks(from); s > 0 && w > s {
		w = s
	}
	if n := len(v.SourceMetas(from)); w > n {
		w = n
	}
	return w
}

func suffix(preserve bool) string {
	if preserve {
		return ""
	}
	return "-P"
}

// Full always merges the entire overflowing level into the next: the
// granularity of the original LSM-tree (and, without preservation, of
// bLSM).
type Full struct{}

// NewFull returns the Full policy under the leveling layout.
func NewFull(preserve bool) *Policy {
	return newPolicy(&Full{}, preserve)
}

// Name implements Granularity.
func (p *Full) Name() string { return "Full" }

// Decide implements Granularity: always a full merge.
func (p *Full) Decide(View, int) Decision { return Decision{Full: true} }

// RR is the round-robin partial granularity of Example 1 (roughly
// LevelDB's): each merge takes the next δK blocks in key order, starting
// after the largest key involved in the previous merge from that level,
// wrapping to the start of the level when the end is reached.
type RR struct {
	delta  float64
	cursor map[int]cursor // per source level
}

type cursor struct {
	key uint64 // last merged max key (block.Key widened)
	set bool
}

// NewRR returns the RR policy with merge rate delta.
func NewRR(delta float64, preserve bool) *Policy {
	return newPolicy(&RR{delta: delta, cursor: make(map[int]cursor)}, preserve)
}

// Name implements Granularity.
func (p *RR) Name() string { return "RR" }

// Decide implements Granularity.
func (p *RR) Decide(v View, from int) Decision {
	metas := v.SourceMetas(from)
	w := windowBlocks(v, from, p.delta)
	start := 0
	if c := p.cursor[from]; c.set {
		// First block whose smallest key is greater than the cursor;
		// wrap to the start when none remains.
		start = len(metas)
		for i, m := range metas {
			if uint64(m.Min) > c.key {
				start = i
				break
			}
		}
		if start == len(metas) {
			start = 0
		}
	}
	end := start + w
	if end > len(metas) {
		end = len(metas)
	}
	p.cursor[from] = cursor{key: uint64(metas[end-1].Max), set: true}
	return Decision{From: start, To: end}
}

// Cursor returns the largest key involved in the previous merge from the
// given source level — the point after which RR's next window begins (the
// arrow in the paper's Figure 1).
func (p *RR) Cursor(from int) (uint64, bool) {
	c := p.cursor[from]
	return c.key, c.set
}

// LevelsGrew shifts RR's cursors when the tree gains a level: the old
// bottom level (index oldBottom) is relabelled to oldBottom+1.
func (p *RR) LevelsGrew(oldBottom int) {
	if c, ok := p.cursor[oldBottom]; ok {
		p.cursor[oldBottom+1] = c
		delete(p.cursor, oldBottom)
	}
}

// ChooseBest is the paper's provably good partial granularity (Section
// III-C): among all windows of δK consecutive source blocks, merge the one
// whose key range overlaps the fewest next-level blocks. The scan runs
// over the in-memory block metadata only.
//
// With Partitioned set, candidate windows are restricted to a fixed
// partitioning of the level (window starts at multiples of the window
// size), approximating HyperLevelDB, which picks the best among
// pre-partitioned SSTables; the paper treats full ChooseBest as a strictly
// stronger version of that policy.
type ChooseBest struct {
	delta       float64
	partitioned bool
}

// NewChooseBest returns the ChooseBest policy with merge rate delta.
func NewChooseBest(delta float64, preserve bool) *Policy {
	return newPolicy(&ChooseBest{delta: delta}, preserve)
}

// NewChooseBestPartitioned returns the HyperLevelDB-style restriction of
// ChooseBest that only considers aligned windows.
func NewChooseBestPartitioned(delta float64, preserve bool) *Policy {
	return newPolicy(&ChooseBest{delta: delta, partitioned: true}, preserve)
}

// Name implements Granularity.
func (p *ChooseBest) Name() string {
	if p.partitioned {
		return "ChooseBestPart"
	}
	return "ChooseBest"
}

// Decide implements Granularity.
func (p *ChooseBest) Decide(v View, from int) Decision {
	w := windowBlocks(v, from, p.delta)
	step := 1
	if p.partitioned {
		step = w
	}
	start := bestWindow(v.SourceMetas(from), v.TargetMetas(from), w, step)
	to := start + w
	if n := len(v.SourceMetas(from)); to > n {
		to = n
	}
	return Decision{From: start, To: to}
}

// bestWindow returns the start of the w-block window of src whose span
// overlaps the fewest tgt blocks, scanning both metadata lists once with
// two pointers (the paper's single simultaneous pass over ℓ and ℓ′).
// Candidate starts advance by step (1 for full ChooseBest).
func bestWindow(src, tgt []btree.BlockMeta, w, step int) int {
	if w >= len(src) {
		return 0
	}
	bestStart, bestCount := 0, len(tgt)+1
	lo, hi := 0, 0 // tgt pointers: [lo, hi) overlaps the current span
	for s := 0; s+w <= len(src); s += step {
		min := src[s].Min
		max := src[s+w-1].Max
		for lo < len(tgt) && tgt[lo].Max < min {
			lo++
		}
		if hi < lo {
			hi = lo
		}
		for hi < len(tgt) && tgt[hi].Min <= max {
			hi++
		}
		if c := hi - lo; c < bestCount {
			bestCount, bestStart = c, s
		}
	}
	return bestStart
}

// TestMixed is the diagnostic granularity of Section IV-A: ChooseBest for
// all merges except those into the bottom level, which are Full.
type TestMixed struct {
	cb *ChooseBest
}

// NewTestMixed returns the TestMixed policy with merge rate delta.
func NewTestMixed(delta float64, preserve bool) *Policy {
	return newPolicy(&TestMixed{cb: &ChooseBest{delta: delta}}, preserve)
}

// Name implements Granularity.
func (p *TestMixed) Name() string { return "TestMixed" }

// Decide implements Granularity.
func (p *TestMixed) Decide(v View, from int) Decision {
	if from+1 == v.Height()-1 {
		return Decision{Full: true}
	}
	return p.cb.Decide(v, from)
}

// Mixed is the paper's threshold granularity (Section IV-B), parameterized
// by a per-level threshold τ_i for internal levels and a Boolean β for the
// bottom level:
//
//   - merges out of L0 are always partial (ChooseBest);
//   - a merge into internal level L_i is Full while S(L_i) < τ_i·K_i,
//     and ChooseBest otherwise;
//   - a merge into the bottom level is Full iff β.
//
// The zero parameters (no thresholds, β=false) make Mixed identical to
// ChooseBest; internal/learn finds the optimal settings for a workload.
type Mixed struct {
	cb   *ChooseBest
	taus map[int]float64
	beta bool
}

// NewMixed returns a Mixed policy. taus maps target level index to τ; keys
// absent default to 0 (always partial). The map is copied.
func NewMixed(delta float64, preserve bool, taus map[int]float64, beta bool) *Policy {
	m := &Mixed{cb: &ChooseBest{delta: delta}, taus: make(map[int]float64), beta: beta}
	for k, v := range taus {
		m.taus[k] = v
	}
	return newPolicy(m, preserve)
}

// Name implements Granularity.
func (p *Mixed) Name() string { return "Mixed" }

// SetTau sets the threshold for merges into level target.
func (p *Mixed) SetTau(target int, tau float64) { p.taus[target] = tau }

// SetBeta sets the bottom-level decision.
func (p *Mixed) SetBeta(beta bool) { p.beta = beta }

// Tau returns the threshold for merges into level target.
func (p *Mixed) Tau(target int) float64 { return p.taus[target] }

// Beta returns the bottom-level decision.
func (p *Mixed) Beta() bool { return p.beta }

// Decide implements Granularity.
func (p *Mixed) Decide(v View, from int) Decision {
	if from == 0 {
		return p.cb.Decide(v, from)
	}
	target := from + 1
	if target == v.Height()-1 {
		if p.beta {
			return Decision{Full: true}
		}
		return p.cb.Decide(v, from)
	}
	if float64(v.SizeBlocks(target)) < p.taus[target]*float64(v.CapacityBlocks(target)) {
		return Decision{Full: true}
	}
	return p.cb.Decide(v, from)
}

// String renders the Mixed parameters for reports.
func (p *Mixed) String() string {
	return fmt.Sprintf("Mixed(taus=%v, beta=%v)", p.taus, p.beta)
}
