package experiments

import (
	"fmt"
	"strings"

	"lsmssd/internal/compaction"
	"lsmssd/internal/policy"
	"lsmssd/internal/workload"
)

// LayoutRow is one (layout, workload) cell of the layout sweep: the
// write-amplification / read-amplification tradeoff that separates
// leveling, tiering, and lazy leveling. BENCH_policy.json is an array of
// these.
type LayoutRow struct {
	Layout      string  `json:"layout"`
	TierRuns    int     `json:"tier_runs"`
	Workload    string  `json:"workload"`
	WritesPerMB float64 `json:"writes_per_mb"`
	ReadsPerMB  float64 `json:"reads_per_mb"`
	Height      int     `json:"height"`
	MaxRuns     int     `json:"max_runs"` // most runs any level held during the window
	MeasuredMB  float64 `json:"measured_mb"`
}

// LayoutWorkloads are the sweep's workload names, in report order: the
// neutral baseline, then the two mixes that differentiate the layouts.
var LayoutWorkloads = []string{"uniform", "delete-heavy", "scan-heavy"}

// DefaultLayouts are the sweep's layout candidates, in report order.
func DefaultLayouts(tierRuns int) []policy.Layout {
	return []policy.Layout{
		{Kind: policy.Leveling},
		{Kind: policy.Tiering, TierRuns: tierRuns},
		{Kind: policy.LazyLeveling, TierRuns: tierRuns},
	}
}

// ParseLayouts parses a -layout flag value: "all" or a comma list of
// leveling, tiering, and lazy(-leveling). Tiered entries get the given
// run budget.
func ParseLayouts(s string, tierRuns int) ([]policy.Layout, error) {
	if s == "" || s == "all" {
		return DefaultLayouts(tierRuns), nil
	}
	var out []policy.Layout
	for _, f := range strings.Split(s, ",") {
		k, err := policy.ParseLayout(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, policy.Layout{Kind: k, TierRuns: tierRuns}.Normalized())
	}
	return out, nil
}

// ParseWorkloads parses a -workload flag value: "all" or a comma list of
// the LayoutWorkloads names (the -heavy suffix may be dropped).
func ParseWorkloads(s string) ([]string, error) {
	if s == "" || s == "all" {
		return LayoutWorkloads, nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		switch name := strings.TrimSpace(f); name {
		case "uniform", "delete-heavy", "scan-heavy":
			out = append(out, name)
		case "delete", "scan":
			out = append(out, name+"-heavy")
		default:
			return nil, fmt.Errorf("experiments: unknown workload %q (want uniform, delete-heavy, scan-heavy, or all)", name)
		}
	}
	return out, nil
}

// layoutGen builds the named workload generator with the indexed count
// pinned at target.
func layoutGen(name string, keySpace uint64, payload, target int, seed int64) (workload.Generator, error) {
	switch name {
	case "uniform":
		return workload.NewUniform(workload.UniformConfig{
			KeySpace: keySpace, PayloadSize: payload,
			InsertRatio: 0.5, TargetKeys: target, Seed: seed,
		}), nil
	case "delete-heavy":
		return workload.NewDeleteHeavy(workload.DeleteHeavyConfig{
			KeySpace: keySpace, PayloadSize: payload,
			TombstoneRatio: 0.6, TargetKeys: target, Seed: seed,
		}), nil
	case "scan-heavy":
		return workload.NewScanHeavy(workload.ScanHeavyConfig{
			KeySpace: keySpace, PayloadSize: payload,
			ScanRatio: 0.3, ScanSpan: keySpace / 500,
			InsertRatio: 0.5, TargetKeys: target, Seed: seed,
		}), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q (want uniform, delete-heavy, or scan-heavy)", name)
}

// LayoutSweep measures every layout × workload cell: grow a fresh tree to
// datasetMB under the workload, settle, then measure device writes and
// reads over a windowMB request window. The same steady-state protocol as
// RunSteady, with reads reported alongside writes because read
// amplification is the cost tiering pays for its write savings.
//
// The base policy is Full with block-preserving moves on every layout, so
// the cells differ only along the layout axis.
func (p Params) LayoutSweep(layouts []policy.Layout, workloads []string, datasetMB, windowMB float64) ([]LayoutRow, *Table, error) {
	p = p.WithDefaults()
	const k0MB, payload = 1.0, 96
	eff := p.effectiveScale(k0MB)
	target := recordsForMBEff(datasetMB, payload, eff)
	winBytes := bytesEff(windowMB, eff)

	table := &Table{
		Title:  fmt.Sprintf("Layout sweep: blocks written/read per MB of requests (dataset %.0f MB, window %.0f MB)", datasetMB, windowMB),
		Header: []string{"layout", "workload", "writes/MB", "reads/MB", "height", "max runs"},
	}
	var rows []LayoutRow
	for _, lay := range layouts {
		lay = lay.Normalized()
		for _, wl := range workloads {
			gen, err := layoutGen(wl, p.KeySpace, payload, target, p.Seed)
			if err != nil {
				return nil, nil, err
			}
			pol := policy.NewFull(true).WithLayout(lay)
			// A cache of a few blocks keeps reads honest: every run the
			// read path crosses costs device reads instead of hits.
			tree, dev, err := p.newTree(pol, payload, p.blocksForMB(k0MB), 4)
			if err != nil {
				return nil, nil, err
			}
			if err := growAndSettle(tree, gen, target); err != nil {
				return nil, nil, fmt.Errorf("%s/%s: %w", lay, wl, err)
			}
			dev.ResetCounters()
			// Batched drive: the run fan-out peaks between merges, so the
			// max-runs gauge is sampled during the window, not after it.
			var issued int64
			maxRuns, stalls := 0, 0
			for issued < winBytes {
				n, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 200)
				if err != nil {
					return nil, nil, fmt.Errorf("%s/%s: %w", lay, wl, err)
				}
				if n == 0 {
					if stalls++; stalls > 5 {
						return nil, nil, fmt.Errorf("%s/%s: generator stalled after %d bytes", lay, wl, issued)
					}
					continue
				}
				stalls = 0
				issued += n
				for i := 1; i < tree.Height(); i++ {
					if n := len(tree.Runs(i)); n > maxRuns {
						maxRuns = n
					}
				}
			}
			realMB := float64(issued) / mib
			row := LayoutRow{
				Layout:      lay.String(),
				TierRuns:    lay.TierRuns,
				Workload:    wl,
				WritesPerMB: float64(dev.Counters().Writes) / realMB,
				ReadsPerMB:  float64(dev.Counters().Reads) / realMB,
				Height:      tree.Height(),
				MaxRuns:     maxRuns,
				MeasuredMB:  realMB,
			}
			rows = append(rows, row)
			table.AddRow(row.Layout, row.Workload, f1(row.WritesPerMB), f1(row.ReadsPerMB),
				fmt.Sprintf("%d", row.Height), fmt.Sprintf("%d", row.MaxRuns))
		}
	}
	return rows, table, nil
}
