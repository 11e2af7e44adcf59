package experiments

import (
	"fmt"

	"lsmssd/internal/compaction"
	"lsmssd/internal/learn"
	"lsmssd/internal/policy"
	"lsmssd/internal/workload"
)

// LayoutSearch runs the learner's layout × δ × T search against live
// trees: each candidate (layout, δ) gets a fresh tree under
// ChooseBest(δ) relayed onto the layout, grown to datasetMB and settled,
// and its cost is device blocks written per MB of requests over a
// windowMB measurement window. The discrete layout × T set is enumerated
// exhaustively; δ is golden-section searched within each layout (see
// learn.SearchLayout).
//
// ChooseBest carries the δ axis because it is the paper's strongest
// δ-parameterized granularity; the layout axis is applied with
// Policy.WithLayout so the candidates differ only along the searched axes.
func (p Params) LayoutSearch(space learn.Space, wl string, datasetMB, windowMB float64) (learn.Candidate, []learn.Candidate, *Table, error) {
	p = p.WithDefaults()
	const k0MB, payload = 1.0, 96
	eff := p.effectiveScale(k0MB)
	target := recordsForMBEff(datasetMB, payload, eff)
	winBytes := bytesEff(windowMB, eff)

	measure := func(lay policy.Layout, delta float64) (float64, error) {
		gen, err := layoutGen(wl, p.KeySpace, payload, target, p.Seed)
		if err != nil {
			return 0, err
		}
		pol := policy.NewChooseBest(delta, true).WithLayout(lay)
		tree, dev, err := p.newTree(pol, payload, p.blocksForMB(k0MB), 4)
		if err != nil {
			return 0, err
		}
		if err := growAndSettle(tree, gen, target); err != nil {
			return 0, fmt.Errorf("%s δ=%.1f: %w", lay, delta, err)
		}
		dev.ResetCounters()
		issued, err := workload.Drive(gen, compaction.Driver{Tree: tree}, winBytes)
		if err != nil {
			return 0, fmt.Errorf("%s δ=%.1f: %w", lay, delta, err)
		}
		if issued == 0 {
			return 0, fmt.Errorf("%s δ=%.1f: generator stalled", lay, delta)
		}
		return float64(dev.Counters().Writes) / (float64(issued) / mib), nil
	}

	best, all, err := learn.SearchLayout(space, measure)
	if err != nil {
		return learn.Candidate{}, all, nil, err
	}
	table := &Table{
		Title: fmt.Sprintf("Layout search (%s, dataset %.0f MB, window %.0f MB): %d of %d points measured",
			wl, datasetMB, windowMB, len(all), len(space.Layouts)*len(space.DeltaGrid)),
		Header: []string{"layout", "δ", "writes/MB", "best"},
	}
	for _, c := range all {
		mark := ""
		if c.Layout == best.Layout && c.Delta == best.Delta {
			mark = "◀"
		}
		table.AddRow(c.Layout.String(), f1(c.Delta), f1(c.Cost), mark)
	}
	return best, all, table, nil
}
