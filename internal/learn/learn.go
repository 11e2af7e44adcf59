// Package learn implements the paper's parameter-learning procedure for
// the Mixed merge policy (Section IV-C): the thresholds τ₂,…,τ_{h−2} are
// learned one level at a time, top-down, followed by the bottom-level
// decision β. Theorem 4 shows this greedy order is globally optimal;
// Theorem 5 shows the per-level cost curve C(τ) is concave-up, so each
// threshold can be found by golden-section search over the discretized
// domain — or, as the paper does in practice, a linear scan that stops
// when C(τ) starts to increase.
//
// Learning is performed online on a Target — a bare tree (Tree) or a
// running DB: the learner drives the provided workload through it, watches
// merge events to detect the level cycles that delimit measurements, and
// sets the Mixed policy's parameters in place. A Target of several shards
// learns one (τ, β) from their pooled costs.
package learn

import (
	"fmt"
	"math"
	"sync/atomic"

	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/policy"
	"lsmssd/internal/workload"
)

// Target is what the learner drives: one or more shards, each a tree under
// a Mixed policy, taking requests in the paper's synchronous model.
type Target interface {
	// Put and Delete apply one request and return only after the merge
	// cascade it set off has run.
	workload.Store
	// Heights reports each shard's height (the paper's h, L0 included),
	// indexed by shard.
	Heights() []int
	// OnMerge replaces the merge hook (nil removes it); ev is a merge
	// installed on the given shard. Calls come one at a time, possibly on
	// another goroutine. Every call for a merge a Put or Delete set off
	// happens before that Put or Delete returns, and no call of a replaced
	// hook happens after OnMerge returns.
	OnMerge(fn func(shard int, ev core.MergeEvent))
	// SetTau and SetBeta set the threshold of a level and the bottom-level
	// decision on every shard's policy.
	SetTau(level int, tau float64)
	SetBeta(beta bool)
}

// Tree is the Target of one bare tree built with m as its policy: requests
// run the cascade inline (compaction.Driver). Single-threaded, like the
// tree.
func Tree(t *core.Tree, m *policy.Mixed) Target { return treeTarget{compaction.Driver{Tree: t}, m} }

type treeTarget struct {
	compaction.Driver
	m *policy.Mixed
}

func (t treeTarget) Heights() []int                { return []int{t.Tree.Height()} }
func (t treeTarget) SetTau(level int, tau float64) { t.m.SetTau(level, tau) }
func (t treeTarget) SetBeta(beta bool)             { t.m.SetBeta(beta) }

func (t treeTarget) OnMerge(fn func(int, core.MergeEvent)) {
	if fn == nil {
		t.Tree.OnMerge(nil)
		return
	}
	t.Tree.OnMerge(func(ev core.MergeEvent) { fn(0, ev) })
}

// SearchKind selects the threshold search strategy.
type SearchKind int

// Search strategies for the per-level threshold.
const (
	// LinearEarlyStop scans the grid from τ=0 upward and stops once the
	// measured cost starts to increase (the paper's practical choice).
	LinearEarlyStop SearchKind = iota
	// GoldenSection runs a golden-section (Fibonacci) search over the
	// grid, using O(log |Dτ|) measurements (Theorem 5).
	GoldenSection
	// Exhaustive measures every grid point (used to plot Figure 5).
	Exhaustive
)

// Options tunes the learning procedure.
type Options struct {
	// TauGrid is the discretized threshold domain Dτ. Default: multiples
	// of 10% in [0, 1].
	TauGrid []float64
	// Search selects the strategy (default LinearEarlyStop).
	Search SearchKind
	// MaxBytesPerCycle caps the workload bytes driven while waiting for
	// a single cycle to complete, to bound runaway measurements. It is per
	// shard: a Target of N shards may drive N times as much. Default:
	// 256 MB.
	MaxBytesPerCycle int64
	// BetaWindowBytes is the measurement window for the bottom-level
	// decision β, per shard like MaxBytesPerCycle. Required by Learn on
	// trees of three or more levels.
	BetaWindowBytes int64
}

func (o Options) withDefaults() Options {
	if o.TauGrid == nil {
		for i := 0; i <= 10; i++ {
			o.TauGrid = append(o.TauGrid, float64(i)/10)
		}
	}
	if o.MaxBytesPerCycle == 0 {
		o.MaxBytesPerCycle = 256 << 20
	}
	return o
}

// Result reports the learned parameters and the measurement effort spent.
type Result struct {
	Taus         map[int]float64
	Beta         bool
	Measurements int
	BytesDriven  int64
}

// Learn tunes t's Mixed parameters in place by driving gen through it. t
// should be in (or near) a steady state, and its shards of one height. Its
// OnMerge hook is used during each measurement and released after it.
func Learn(t Target, gen workload.Generator, o Options) (Result, error) {
	lr, h, err := newLearner(t, gen, o)
	if err != nil {
		return Result{}, err
	}
	if h >= 3 && o.BetaWindowBytes <= 0 {
		return Result{}, fmt.Errorf("learn: BetaWindowBytes must be positive")
	}
	res := Result{Taus: make(map[int]float64)}

	// Top-down: internal levels 2..h-2.
	for target := 2; target <= h-2; target++ {
		tau, err := lr.searchTau(target)
		if err != nil {
			return res, err
		}
		t.SetTau(target, tau)
		res.Taus[target] = tau
	}

	// Bottom decision β: compare the steady-state cost under both
	// settings, full measurement window each.
	if h >= 3 {
		cFalse, err := lr.measureBeta(false)
		if err != nil {
			return res, err
		}
		cTrue, err := lr.measureBeta(true)
		if err != nil {
			return res, err
		}
		t.SetBeta(cTrue < cFalse)
		res.Beta = cTrue < cFalse
	}
	res.Measurements = lr.measurements
	res.BytesDriven = lr.bytes
	return res, nil
}

// Curve measures C(τ) for every grid point at the given target level,
// regenerating the paper's Figure 5. The Mixed policy's τ for that level
// is left at the final grid value.
func Curve(t Target, gen workload.Generator, target int, o Options) ([]float64, error) {
	lr, _, err := newLearner(t, gen, o)
	if err != nil {
		return nil, err
	}
	lr.prepare(target)
	out := make([]float64, len(lr.o.TauGrid))
	for i, tau := range lr.o.TauGrid {
		c, err := lr.measureTau(target, tau)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

type learner struct {
	t      Target
	shards int
	gen    workload.Generator
	o      Options

	measurements int
	bytes        int64
}

// newLearner builds the learner for t and returns t's height, which every
// shard must share.
func newLearner(t Target, gen workload.Generator, o Options) (*learner, int, error) {
	hs := t.Heights()
	for _, h := range hs[1:] {
		if h != hs[0] {
			return nil, 0, fmt.Errorf("learn: shard heights %v differ; learning one set of parameters needs one tree shape", hs)
		}
	}
	return &learner{t: t, shards: len(hs), gen: gen, o: o.withDefaults()}, hs[0], nil
}

// prepare configures the policy around a τ measurement at `target`: the
// already-learned thresholds above stay; merges from L_target into
// L_target+1 are forced Full; everything below runs ChooseBest.
func (lr *learner) prepare(target int) {
	h := lr.t.Heights()[0]
	if target+1 == h-1 {
		lr.t.SetBeta(true)
	} else {
		lr.t.SetTau(target+1, 2.0) // S < 2K always: forced Full
	}
	for j := target + 2; j <= h-2; j++ {
		lr.t.SetTau(j, 0)
	}
	if target+1 != h-1 {
		lr.t.SetBeta(false)
	}
}

// searchTau finds argmin C(τ) for the target level using the configured
// strategy.
func (lr *learner) searchTau(target int) (float64, error) {
	lr.prepare(target)
	grid := lr.o.TauGrid
	memo := make(map[int]float64)
	eval := func(i int) (float64, error) {
		if c, ok := memo[i]; ok {
			return c, nil
		}
		c, err := lr.measureTau(target, grid[i])
		if err != nil {
			return 0, err
		}
		memo[i] = c
		return c, nil
	}

	switch lr.o.Search {
	case GoldenSection:
		i, err := goldenSection(len(grid), eval)
		return grid[i], err
	case Exhaustive:
		best, bestC := 0, math.Inf(1)
		for i := range grid {
			c, err := eval(i)
			if err != nil {
				return 0, err
			}
			if c < bestC {
				best, bestC = i, c
			}
		}
		return grid[best], nil
	default: // LinearEarlyStop
		bestC, err := eval(0)
		if err != nil {
			return 0, err
		}
		best := 0
		for i := 1; i < len(grid); i++ {
			c, err := eval(i)
			if err != nil {
				return 0, err
			}
			if c >= bestC {
				break // concave-up: past the minimum
			}
			best, bestC = i, c
		}
		return grid[best], nil
	}
}

// measureTau measures C(τ…, τ_target=tau): writes into L1..L_target per
// record merged into L1, over one full cycle of L_target (from empty,
// right after a full merge into L_target+1, until the next one). Each
// shard's window opens at its own full merge into L_target+1 and closes at
// its next one; the measurement pools the windows and ends once every
// shard has closed one.
func (lr *learner) measureTau(target int, tau float64) (float64, error) {
	lr.t.SetTau(target, tau)
	lr.measurements++

	// Full merges into L_target+1 per shard: 0 before its window, 1 in it,
	// 2 after. Hook calls may run on other goroutines, so the counts the
	// drive loop reads are atomic; the sums are read once the hook is gone.
	seen := make([]int, lr.shards)
	var opened, closed atomic.Int64
	var writes, records int64
	lr.t.OnMerge(func(shard int, ev core.MergeEvent) {
		switch {
		case seen[shard] < 2 && ev.To == target+1 && ev.Full:
			seen[shard]++
			if seen[shard] == 1 {
				opened.Add(1)
			} else {
				closed.Add(1)
			}
		case seen[shard] == 1:
			if ev.To <= target {
				writes += int64(ev.BlocksWritten + ev.RepairWrites + ev.CompactionWrites)
			}
			if ev.To == 1 {
				records += int64(ev.RecordsIn)
			}
		}
	})
	all := int64(lr.shards)
	// Skip to a cycle boundary, then measure one cycle.
	err := lr.driveWhile(func() bool { return opened.Load() < all })
	if err == nil {
		err = lr.driveWhile(func() bool { return closed.Load() < all })
	}
	lr.t.OnMerge(nil)
	if err != nil {
		return 0, err
	}
	if records == 0 {
		return math.Inf(1), nil
	}
	return float64(writes) / float64(records), nil
}

// measureBeta measures the total merge cost per record merged into L1 over
// a fixed window, under the given bottom-level decision.
func (lr *learner) measureBeta(beta bool) (float64, error) {
	lr.t.SetBeta(beta)
	lr.measurements++
	window := lr.o.BetaWindowBytes * int64(lr.shards)
	// Warm up for a fraction of the window so the bottom settles under
	// the new regime.
	if err := lr.driveBytes(window / 2); err != nil {
		return 0, err
	}
	var writes, records int64
	lr.t.OnMerge(func(_ int, ev core.MergeEvent) {
		writes += int64(ev.BlocksWritten + ev.RepairWrites + ev.CompactionWrites)
		if ev.To == 1 {
			records += int64(ev.RecordsIn)
		}
	})
	err := lr.driveBytes(window)
	lr.t.OnMerge(nil)
	if err != nil {
		return 0, err
	}
	if records == 0 {
		return math.Inf(1), nil
	}
	return float64(writes) / float64(records), nil
}

// driveWhile issues requests while cond holds, within the per-cycle byte
// cap (per shard).
func (lr *learner) driveWhile(cond func() bool) error {
	limit := lr.o.MaxBytesPerCycle * int64(lr.shards)
	var driven int64
	for cond() {
		if driven >= limit {
			return fmt.Errorf("learn: cycle did not close within %d bytes", limit)
		}
		n, err := workload.DriveN(lr.gen, lr.t, 1)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("learn: workload generator stalled")
		}
		driven += n
		lr.bytes += n
	}
	return nil
}

func (lr *learner) driveBytes(budget int64) error {
	n, err := workload.Drive(lr.gen, lr.t, budget)
	lr.bytes += n
	return err
}

// goldenSection minimizes a unimodal function over grid indices [0, n).
func goldenSection(n int, eval func(int) (float64, error)) (int, error) {
	lo, hi := 0, n-1
	phi := (math.Sqrt(5) - 1) / 2
	for hi-lo > 2 {
		span := float64(hi - lo)
		a := hi - int(math.Round(phi*span))
		b := lo + int(math.Round(phi*span))
		if a == b {
			b++
		}
		if a <= lo {
			a = lo + 1
		}
		if b >= hi {
			b = hi - 1
		}
		if a >= b {
			break
		}
		ca, err := eval(a)
		if err != nil {
			return 0, err
		}
		cb, err := eval(b)
		if err != nil {
			return 0, err
		}
		if ca <= cb {
			hi = b
		} else {
			lo = a
		}
	}
	best, bestC := lo, math.Inf(1)
	for i := lo; i <= hi; i++ {
		c, err := eval(i)
		if err != nil {
			return 0, err
		}
		if c < bestC {
			best, bestC = i, c
		}
	}
	return best, nil
}
