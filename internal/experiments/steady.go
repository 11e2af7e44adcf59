package experiments

import (
	"fmt"
	"time"

	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/learn"
	"lsmssd/internal/obs"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
	"lsmssd/internal/workload"
)

// SteadySpec describes one steady-state measurement run (the protocol of
// Section V-A): grow the index with inserts to the target dataset size,
// switch to the steady request mix, wait until at least one full
// second-to-last level worth of data has merged into the bottom level
// (and, for Mixed, until parameter learning finishes), then measure.
type SteadySpec struct {
	PolicyName string
	Delta      float64
	Workload   WorkloadSpec
	DatasetMB  float64 // paper-scale dataset size
	K0MB       float64 // paper-scale memtable size (e.g. 1 or 16)
	CacheMB    float64 // paper-scale buffer cache size
	// WindowCycles scales the measurement window: multiples of the
	// second-to-last level's capacity in bytes (default 2, i.e. at least
	// two full cycles of the second-to-last level).
	WindowCycles float64
	// MixedTaus/MixedBeta preset the Mixed policy instead of learning
	// (used by the insert-only experiment, which reuses steady-state
	// parameters as the paper does).
	MixedTaus map[int]float64
	MixedBeta *bool
}

// SteadyResult is the outcome of one steady-state run.
type SteadyResult struct {
	WritesPerMB  float64 // blocks written per real MB of requests (Figure 6's y-axis)
	SecondsPerMB float64 // wall-clock seconds per real MB of requests (Figure 7's y-axis)
	Height       int
	Records      int
	MeasuredMB   float64       // requests measured, in real MB
	Mixed        *policy.Mixed // non-nil when the run used Mixed (learned params inspectable)
	Tree         *core.Tree    // the tree after measurement, for follow-up diagnostics
}

// steadyRun is a prepared steady-state index ready for measurement.
type steadyRun struct {
	tree  *core.Tree
	dev   *storage.MemDevice
	gen   workload.Generator
	pol   *policy.Policy
	mixed *policy.Mixed // nil unless the policy is Mixed
}

// buildSteady constructs the index, grows it, settles it, and (for Mixed
// without preset parameters) learns the policy parameters.
func (p Params) buildSteady(spec SteadySpec) (*steadyRun, error) {
	pol, err := BuildPolicy(spec.PolicyName, spec.Delta)
	if err != nil {
		return nil, err
	}
	eff := p.effectiveScale(spec.K0MB)
	wl := spec.Workload
	wl.TargetRecords = recordsForMBEff(spec.DatasetMB, wl.PayloadSize, eff)
	if wl.Seed == 0 {
		wl.Seed = p.Seed
	}
	gen := wl.New(p.KeySpace)
	tree, dev, err := p.newTree(pol, wl.PayloadSize, p.blocksForMB(spec.K0MB), p.blocksForMB(spec.CacheMB))
	if err != nil {
		return nil, err
	}
	if err := growAndSettle(tree, gen, wl.TargetRecords); err != nil {
		return nil, err
	}
	run := &steadyRun{tree: tree, dev: dev, gen: gen, pol: pol}
	if m, ok := pol.Mixed(); ok {
		run.mixed = m
		if spec.MixedTaus != nil || spec.MixedBeta != nil {
			for lvl, tau := range spec.MixedTaus {
				m.SetTau(lvl, tau)
			}
			if spec.MixedBeta != nil {
				m.SetBeta(*spec.MixedBeta)
			}
		} else {
			h := tree.Height()
			winBytes := int64(2 * tree.CapacityBlocks(h-2) * p.BlockSize)
			if _, err := learn.Learn(learn.Tree(tree, m), gen, learn.Options{
				BetaWindowBytes:  winBytes,
				MaxBytesPerCycle: 512 * winBytes,
			}); err != nil {
				return nil, fmt.Errorf("learning Mixed parameters: %w", err)
			}
		}
	}
	return run, nil
}

// RunSteady executes the steady-state protocol and measurement.
func (p Params) RunSteady(spec SteadySpec) (SteadyResult, error) {
	p = p.WithDefaults()
	if spec.WindowCycles == 0 {
		spec.WindowCycles = 2
	}
	run, err := p.buildSteady(spec)
	if err != nil {
		return SteadyResult{}, err
	}
	return p.measureSteady(spec, run)
}

// measureSteady runs the measurement window over a prepared steady index.
func (p Params) measureSteady(spec SteadySpec, run *steadyRun) (SteadyResult, error) {
	tree, dev := run.tree, run.dev
	h := tree.Height()
	winBytes := int64(spec.WindowCycles * float64(tree.CapacityBlocks(h-2)*p.BlockSize))
	base := dev.Counters().Writes
	runName := spec.PolicyName + "/" + spec.Workload.Kind.String()
	if p.Bus.Enabled() {
		// The marker is published from the writer's goroutine, so in a
		// recorded trace it precedes every merge of the window exactly.
		p.Bus.Publish(obs.RunEvent{Name: runName, Phase: "measure-start"})
	}
	start := time.Now()
	issued, err := workload.Drive(run.gen, compaction.Driver{Tree: tree}, winBytes)
	if err != nil {
		return SteadyResult{}, err
	}
	elapsed := time.Since(start)

	// Normalize by real request megabytes: the per-record write cost is
	// scale-invariant (it depends on the level geometry, which scaling
	// preserves), so writes per MB of actual requests is directly
	// comparable with the paper's absolute y-axis.
	realMB := float64(issued) / mib
	writes := dev.Counters().Writes - base
	if p.Bus.Enabled() {
		p.Bus.Publish(obs.RunEvent{
			Name:      runName,
			Phase:     "measure-end",
			Writes:    writes,
			RequestMB: realMB,
		})
	}
	return SteadyResult{
		WritesPerMB:  float64(writes) / realMB,
		SecondsPerMB: elapsed.Seconds() / realMB,
		Height:       tree.Height(),
		Records:      tree.Records(),
		MeasuredMB:   realMB,
		Mixed:        run.mixed,
		Tree:         tree,
	}, nil
}

// growAndSettle fills the index to the target size with the generator's
// self-balancing ratio (insert-dominated until the target), then runs the
// steady mix until at least one second-to-last-level capacity worth of
// records has merged into the bottom level.
func growAndSettle(tree *core.Tree, gen workload.Generator, targetRecords int) error {
	maxRequests := 400*targetRecords + 1_000_000
	driven := 0
	if err := bulkLoad(tree, gen, targetRecords); err != nil {
		return err
	}

	// Settle: watch records flowing into the bottom level.
	cfg := tree.Config()
	need := tree.CapacityBlocks(tree.Height()-2) * cfg.BlockCapacity
	var intoBottom int
	tree.OnMerge(func(ev core.MergeEvent) {
		if ev.To == tree.Height()-1 {
			intoBottom += ev.RecordsIn
		}
	})
	defer tree.OnMerge(nil)
	for intoBottom < need {
		if _, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 1000); err != nil {
			return err
		}
		driven += 1000
		if driven > maxRequests {
			return fmt.Errorf("experiments: bottom level saw only %d/%d records during settle", intoBottom, need)
		}
	}
	return nil
}

// RunSteadyForced is RunSteady with an optional forced level growth right
// before the measurement window — the paper's open question of strategic
// level growth (Section V-A's "can we increase the number of levels
// strategically?").
func (p Params) RunSteadyForced(spec SteadySpec, forceGrow bool) (SteadyResult, error) {
	p = p.WithDefaults()
	if spec.WindowCycles == 0 {
		spec.WindowCycles = 2
	}
	run, err := p.buildSteady(spec)
	if err != nil {
		return SteadyResult{}, err
	}
	if forceGrow {
		run.tree.ForceGrow()
	}
	return p.measureSteady(spec, run)
}
