package experiments

import (
	"fmt"

	"lsmssd/internal/compaction"
	"lsmssd/internal/histogram"
	"lsmssd/internal/learn"
	"lsmssd/internal/workload"
)

// Workload presets matching Section V. ω is scaled with the dataset so the
// mean moves at the paper's rate relative to level cycles.
func (p Params) uniformWL(payload float64) WorkloadSpec {
	return WorkloadSpec{Kind: Uniform, PayloadSize: int(payload), InsertRatio: 0.5}
}

func (p Params) normalWL(payload float64) WorkloadSpec {
	omega := int(10_000 * p.Scale)
	if omega < 50 {
		omega = 50
	}
	return WorkloadSpec{Kind: Normal, Sigma: 0.005, Omega: omega, PayloadSize: int(payload), InsertRatio: 0.5}
}

func (p Params) tpcWL(payload float64) WorkloadSpec {
	return WorkloadSpec{Kind: TPC, PayloadSize: int(payload), InsertRatio: 0.5}
}

// Fig1Result carries the key-distribution histograms of Figure 1.
type Fig1Result struct {
	Buckets     int
	L1, L2      []float64
	ArrowBucket int // start of the key range RR merges into L2 next
}

// Fig1 reproduces Figure 1: the key distributions of the lowest two levels
// of a 3-level tree under RR at a random steady-state instant, with the
// arrow marking RR's next merge window into L2.
func (p Params) Fig1(buckets int) (Fig1Result, *Table, error) {
	p = p.WithDefaults()
	run, err := p.buildSteady(SteadySpec{
		PolicyName: "RR", Delta: 1.0 / 20,
		Workload:  p.uniformWL(100),
		DatasetMB: 20, K0MB: 1, CacheMB: 1,
	})
	if err != nil {
		return Fig1Result{}, nil, err
	}
	res := Fig1Result{Buckets: buckets}
	v, err := run.tree.AcquireView()
	if err != nil {
		return res, nil, err
	}
	defer v.Release()
	l1, err := histogram.ViewLevel(v, 1, p.KeySpace, buckets)
	if err != nil {
		return res, nil, err
	}
	l2, err := histogram.ViewLevel(v, 2, p.KeySpace, buckets)
	if err != nil {
		return res, nil, err
	}
	res.L1, res.L2 = histogram.Normalize(l1), histogram.Normalize(l2)
	if rr, ok := run.pol.RR(); ok {
		if k, set := rr.Cursor(1); set {
			res.ArrowBucket = int(k / ((p.KeySpace + uint64(buckets) - 1) / uint64(buckets)))
		}
	}
	t := &Table{
		Title:  "Figure 1: key distribution by level (RR, Uniform, 20MB, steady state)",
		Header: []string{"bucket", "L1_freq", "L2_freq"},
	}
	for i := 0; i < buckets; i++ {
		mark := ""
		if i == res.ArrowBucket {
			mark = " <-- next merge"
		}
		t.AddRow(fmt.Sprint(i), f4(res.L1[i]), f4(res.L2[i])+mark)
	}
	return res, t, nil
}

// Fig2 reproduces Figure 2: steady-state amortized write cost of Full,
// ChooseBest (δ=1/20), and TestMixed across dataset sizes 20–100MB, for
// the given workload kind (2a: Uniform, 2b: Normal).
func (p Params) Fig2(kind WorkloadKind) (*Table, error) {
	p = p.WithDefaults()
	sizes := []float64{20, 40, 60, 80, 100}
	policies := []string{"Full", "ChooseBest", "TestMixed"}
	t := &Table{
		Title:  fmt.Sprintf("Figure 2 (%s): blocks written per 1MB of requests vs dataset size", kind),
		Header: append([]string{"datasetMB"}, policies...),
	}
	for _, mb := range sizes {
		row := []string{f1(mb)}
		for _, pol := range policies {
			res, err := p.RunSteady(SteadySpec{
				PolicyName: pol, Delta: 1.0 / 20,
				Workload:  p.workloadFor(kind, 100),
				DatasetMB: mb, K0MB: 1, CacheMB: 1,
			})
			if err != nil {
				return nil, fmt.Errorf("fig2 %s %s %vMB: %w", kind, pol, mb, err)
			}
			row = append(row, f1(res.WritesPerMB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// CumSeries is one cumulative-cost series of Figures 3 and 4: per-level
// blocks written over the request timeline.
type CumSeries struct {
	Policy string
	Level  int
	Points []CumPoint
}

// CumPoint is one sample of a cumulative series.
type CumPoint struct {
	RequestMB float64 // paper-MB of requests processed so far
	Writes    int64   // cumulative blocks written into the level
}

// Fig3 reproduces Figure 3 (and, with TestMixed included, Figure 4):
// cumulative merge costs by level over time for a 20MB Uniform steady
// state, sampled every sampleMB paper-megabytes over totalMB.
func (p Params) Fig3(policies []string, totalMB, sampleMB float64) ([]CumSeries, *Table, error) {
	p = p.WithDefaults()
	var series []CumSeries
	t := &Table{
		Title:  "Figures 3/4: cumulative blocks written by level over time (Uniform, 20MB)",
		Header: []string{"policy", "level", "requestMB", "cumWrites"},
	}
	for _, polName := range policies {
		delta := 1.0 / 20
		if polName == "Full" || polName == "Full-P" {
			delta = 0.07 // unused by Full; kept for uniformity
		}
		run, err := p.buildSteady(SteadySpec{
			PolicyName: polName, Delta: delta,
			Workload:  p.uniformWL(100),
			DatasetMB: 20, K0MB: 1, CacheMB: 1,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("fig3 %s: %w", polName, err)
		}
		tree := run.tree
		h := tree.Height()
		base := make([]int64, h)
		for lvl := 1; lvl < h; lvl++ {
			base[lvl] = tree.Level(lvl).BlocksWritten
		}
		perLevel := make([]CumSeries, h)
		for lvl := 1; lvl < h; lvl++ {
			perLevel[lvl] = CumSeries{Policy: polName, Level: lvl}
		}
		eff := p.effectiveScale(1) // Fig 3/4 use K0 = 1MB
		var issued int64
		for mb := sampleMB; mb <= totalMB+1e-9; mb += sampleMB {
			n, err := workload.Drive(run.gen, compaction.Driver{Tree: tree}, bytesEff(sampleMB, eff))
			if err != nil {
				return nil, nil, err
			}
			issued += n
			reqMB := float64(issued) / (mib * eff)
			for lvl := 1; lvl < h && lvl < tree.Height(); lvl++ {
				w := tree.Level(lvl).BlocksWritten - base[lvl]
				perLevel[lvl].Points = append(perLevel[lvl].Points, CumPoint{RequestMB: reqMB, Writes: w})
				t.AddRow(polName, fmt.Sprint(lvl), f1(reqMB), fmt.Sprint(w))
			}
		}
		series = append(series, perLevel[1:]...)
	}
	return series, t, nil
}

// Fig5 reproduces Figure 5: the measured cost curve C(τ₂) on a 4-level
// index, in τ increments of 10%, for the given workload kind.
func (p Params) Fig5(kind WorkloadKind) (*Table, error) {
	p = p.WithDefaults()
	run, err := p.buildSteady(SteadySpec{
		PolicyName: "Mixed", Delta: 0.07,
		Workload:  p.workloadFor(kind, 100),
		DatasetMB: 150, K0MB: 1, CacheMB: 1,
		// Preset parameters: Fig5 plots the raw curve; learning would
		// measure the same points twice.
		MixedTaus: map[int]float64{}, MixedBeta: boolPtr(false),
	})
	if err != nil {
		return nil, fmt.Errorf("fig5 %s: %w", kind, err)
	}
	if h := run.tree.Height(); h < 4 {
		return nil, fmt.Errorf("fig5: tree has %d levels, need 4 (increase dataset or scale)", h)
	}
	winBytes := int64(2 * run.tree.CapacityBlocks(run.tree.Height()-2) * p.BlockSize)
	curve, err := learn.Curve(run.tree, run.mixed, run.gen, 2, learn.Options{
		MaxBytesPerCycle: 1024 * winBytes,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 5 (%s): amortized cost C(tau2) per block merged into L1", kind),
		Header: []string{"tau2", "C"},
	}
	// learn.Curve measures per record merged into L1 (Definition 1);
	// the paper's plot is per block, so scale by B.
	b := float64(run.tree.Config().BlockCapacity)
	for i, c := range curve {
		t.AddRow(f1(float64(i)/10), f2(c*b))
	}
	return t, nil
}

// Fig6 reproduces Figure 6: steady-state write cost across dataset sizes
// for the paper's seven policies (6a Uniform, 6b Normal, 6c TPC). The TPC
// variant plots only the four preserve-enabled policies, as the paper does.
func (p Params) Fig6(kind WorkloadKind, sizes []float64) (*Table, error) {
	p = p.WithDefaults()
	policies := PolicyNames
	if kind == TPC {
		policies = []string{"Full", "RR", "ChooseBest", "Mixed"}
	}
	if sizes == nil {
		sizes = []float64{200, 800, 1400, 1700, 2000}
		if kind == TPC {
			sizes = []float64{200, 1500, 1700, 3000, 5000}
		}
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 6 (%s): blocks written per 1MB of requests vs dataset size", kind),
		Header: append([]string{"datasetMB"}, policies...),
	}
	for _, mb := range sizes {
		row := []string{f1(mb)}
		for _, pol := range policies {
			res, err := p.RunSteady(SteadySpec{
				PolicyName: pol, Delta: 0.05,
				Workload:  p.workloadFor(kind, 100),
				DatasetMB: mb, K0MB: 16, CacheMB: 100,
			})
			if err != nil {
				return nil, fmt.Errorf("fig6 %s %s %vMB: %w", kind, pol, mb, err)
			}
			row = append(row, f1(res.WritesPerMB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: steady-state request processing time per 1MB
// of requests under Normal. Absolute times depend on the host (and on the
// simulated device having no real I/O latency); the paper itself treats
// running time as a secondary, platform-dependent metric.
func (p Params) Fig7(sizes []float64) (*Table, error) {
	p = p.WithDefaults()
	if sizes == nil {
		sizes = []float64{200, 1400, 2000}
	}
	t := &Table{
		Title:  "Figure 7: processing time (seconds) per 1MB of requests (Normal)",
		Header: append([]string{"datasetMB"}, PolicyNames...),
	}
	for _, mb := range sizes {
		row := []string{f1(mb)}
		for _, pol := range PolicyNames {
			res, err := p.RunSteady(SteadySpec{
				PolicyName: pol, Delta: 0.05,
				Workload:  p.normalWL(100),
				DatasetMB: mb, K0MB: 16, CacheMB: 100,
			})
			if err != nil {
				return nil, fmt.Errorf("fig7 %s %vMB: %w", pol, mb, err)
			}
			row = append(row, fmt.Sprintf("%.4g", res.SecondsPerMB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8 reproduces Figure 8: steady-state write cost for a 300MB dataset
// under Normal as the skew σ varies; the x-axis is 2σ as a percentage of
// the key domain.
func (p Params) Fig8(twoSigmaPercents []float64) (*Table, error) {
	p = p.WithDefaults()
	if twoSigmaPercents == nil {
		twoSigmaPercents = []float64{0.005, 0.05, 1, 5, 20}
	}
	t := &Table{
		Title:  "Figure 8: blocks written per 1MB of requests vs skew (Normal, 300MB)",
		Header: append([]string{"2sigma_pct"}, PolicyNames...),
	}
	for _, pct := range twoSigmaPercents {
		row := []string{fmt.Sprintf("%g", pct)}
		wl := p.normalWL(100)
		wl.Sigma = pct / 100 / 2
		for _, pol := range PolicyNames {
			res, err := p.RunSteady(SteadySpec{
				PolicyName: pol, Delta: 0.07,
				Workload:  wl,
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
			if err != nil {
				return nil, fmt.Errorf("fig8 %s 2sigma=%v%%: %w", pol, pct, err)
			}
			row = append(row, f1(res.WritesPerMB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig9 reproduces Figure 9: steady-state write cost for a 300MB Uniform
// dataset as the record payload size varies (block preservation grows more
// effective as fewer records fit in a block).
func (p Params) Fig9(payloads []float64) (*Table, error) {
	p = p.WithDefaults()
	if payloads == nil {
		payloads = []float64{25, 100, 250, 1000, 4000}
	}
	t := &Table{
		Title:  "Figure 9: blocks written per 1MB of requests vs payload size (Uniform, 300MB)",
		Header: append([]string{"payloadB"}, PolicyNames...),
	}
	for _, payload := range payloads {
		row := []string{fmt.Sprintf("%g", payload)}
		for _, pol := range PolicyNames {
			res, err := p.RunSteady(SteadySpec{
				PolicyName: pol, Delta: 0.07,
				Workload:  p.uniformWL(payload),
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
			if err != nil {
				return nil, fmt.Errorf("fig9 %s payload=%v: %w", pol, payload, err)
			}
			row = append(row, f1(res.WritesPerMB))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig10 reproduces Figure 10: amortized write cost over time while the
// index grows under an insert-only Normal workload. Each point is the
// average since the beginning of the workload, sampled when the dataset
// crosses each checkpoint. Mixed reuses parameters learned in a steady
// state, as in the paper.
func (p Params) Fig10(checkpointsMB []float64) (*Table, error) {
	p = p.WithDefaults()
	if checkpointsMB == nil {
		checkpointsMB = []float64{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
	}
	// Learn Mixed parameters once on a mid-size steady state.
	mixedTaus, mixedBeta, err := p.learnMixedPreset()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 10: amortized blocks written per 1MB over time (insert-only Normal)",
		Header: append([]string{"datasetMB"}, PolicyNames...),
	}
	cols := make(map[string][]string)
	for _, pol := range PolicyNames {
		col, err := p.growthRun(pol, mixedTaus, mixedBeta, checkpointsMB)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", pol, err)
		}
		cols[pol] = col
	}
	for i, mb := range checkpointsMB {
		row := []string{f1(mb)}
		for _, pol := range PolicyNames {
			row = append(row, cols[pol][i])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// learnMixedPreset learns Mixed parameters on a 300MB Normal steady state.
func (p Params) learnMixedPreset() (map[int]float64, bool, error) {
	res, err := p.RunSteady(SteadySpec{
		PolicyName: "Mixed", Delta: 0.05,
		Workload:  p.normalWL(100),
		DatasetMB: 300, K0MB: 16, CacheMB: 100,
	})
	if err != nil {
		return nil, false, fmt.Errorf("fig10 presets: %w", err)
	}
	taus := make(map[int]float64)
	for lvl := 2; lvl < res.Height-1; lvl++ {
		taus[lvl] = res.Mixed.Tau(lvl)
	}
	return taus, res.Mixed.Beta(), nil
}

// growthRun grows an empty index with insert-only Normal and samples the
// cumulative average write cost at each dataset checkpoint.
func (p Params) growthRun(polName string, taus map[int]float64, beta bool, checkpointsMB []float64) ([]string, error) {
	pol, err := BuildPolicy(polName, 0.05)
	if err != nil {
		return nil, err
	}
	if m, ok := pol.Mixed(); ok {
		for lvl, tau := range taus {
			m.SetTau(lvl, tau)
		}
		m.SetBeta(beta)
	}
	wl := p.normalWL(100)
	wl.InsertRatio = 1.0
	wl.Seed = p.Seed
	gen := wl.New(p.KeySpace)
	tree, dev, err := p.newTree(pol, wl.PayloadSize, p.blocksForMB(16), p.blocksForMB(100))
	if err != nil {
		return nil, err
	}
	eff := p.effectiveScale(16) // the growth experiment uses K0 = 16MB
	var out []string
	var issued int64
	for _, mb := range checkpointsMB {
		target := recordsForMBEff(mb, wl.PayloadSize, eff)
		for tree.Records() < target {
			n, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 1000)
			if err != nil {
				return nil, err
			}
			issued += n
		}
		realMB := float64(issued) / mib // same normalization as RunSteady
		out = append(out, f1(float64(dev.Counters().Writes)/realMB))
	}
	return out, nil
}

// workloadFor maps a kind to its Section V preset.
func (p Params) workloadFor(kind WorkloadKind, payload float64) WorkloadSpec {
	switch kind {
	case Normal:
		return p.normalWL(payload)
	case TPC:
		return p.tpcWL(payload)
	default:
		return p.uniformWL(payload)
	}
}

func boolPtr(b bool) *bool { return &b }
