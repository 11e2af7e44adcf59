package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// tiny returns parameters small enough for unit tests: the paper's 20MB
// dataset becomes ~400 records.
func tiny() Params {
	return Params{Scale: 0.002, Seed: 7}.WithDefaults()
}

func TestScalingHelpers(t *testing.T) {
	p := tiny()
	if got := p.blocksForMB(1); got < 2 {
		t.Errorf("blocksForMB(1) = %d", got)
	}
	eff := p.effectiveScale(1)
	if eff < p.Scale {
		t.Errorf("effective scale %v below configured %v", eff, p.Scale)
	}
	if got := recordsForMBEff(20, 100, eff); got < 100 {
		t.Errorf("recordsForMBEff(20,100) = %d", got)
	}
	full := Params{Scale: 1}.WithDefaults()
	if got := full.blocksForMB(16); got != 4096 {
		t.Errorf("full-scale 16MB = %d blocks, want 4096", got)
	}
}

func TestBuildPolicyNames(t *testing.T) {
	for _, name := range append(PolicyNames, "TestMixed", "TestMixed-P", "Mixed-P") {
		p, err := BuildPolicy(name, 0.07)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("built %q, got Name %q", name, p.Name())
		}
	}
	if _, err := BuildPolicy("bogus", 0.1); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestRunSteadyAllPolicies(t *testing.T) {
	p := tiny()
	for _, pol := range PolicyNames {
		res, err := p.RunSteady(SteadySpec{
			PolicyName: pol, Delta: 0.05,
			Workload:  p.uniformWL(100),
			DatasetMB: 20, K0MB: 1, CacheMB: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.WritesPerMB <= 0 || math.IsNaN(res.WritesPerMB) {
			t.Errorf("%s: WritesPerMB = %v", pol, res.WritesPerMB)
		}
		if res.Height < 3 {
			t.Errorf("%s: height = %d, want >= 3 at 20MB/K0=1MB", pol, res.Height)
		}
		if err := res.Tree.Validate(); err != nil {
			t.Errorf("%s: %v", pol, err)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	p := tiny()
	res, table, err := p.Fig1(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.L1) != 20 || len(res.L2) != 20 {
		t.Fatalf("histogram sizes %d/%d", len(res.L1), len(res.L2))
	}
	sum := 0.0
	for _, f := range res.L2 {
		sum += f
	}
	if sum < 0.99 {
		t.Errorf("L2 histogram sums to %v", sum)
	}
	if res.ArrowBucket < 0 || res.ArrowBucket >= 20 {
		t.Errorf("arrow bucket %d", res.ArrowBucket)
	}
	if len(table.Rows) != 20 {
		t.Errorf("table rows = %d", len(table.Rows))
	}
}

func TestFig3SeriesMonotone(t *testing.T) {
	p := tiny()
	series, table, err := p.Fig3([]string{"Full", "ChooseBest"}, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 4 { // 2 policies x >= 2 levels
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		var prev int64 = -1
		for _, pt := range s.Points {
			if pt.Writes < prev {
				t.Errorf("%s L%d: cumulative writes decreased", s.Policy, s.Level)
			}
			prev = pt.Writes
		}
	}
	if len(table.Rows) == 0 {
		t.Error("empty table")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	var sb strings.Builder
	if _, err := tab.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# demo") || !strings.Contains(sb.String(), "bb") {
		t.Errorf("rendered: %q", sb.String())
	}
	sb.Reset()
	if err := tab.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,bb\n1,2\n" {
		t.Errorf("csv: %q", sb.String())
	}
}

func TestGrowthRun(t *testing.T) {
	p := tiny()
	col, err := p.growthRun("ChooseBest", nil, false, []float64{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(col) != 2 {
		t.Fatalf("got %d checkpoints", len(col))
	}
}

func TestWorkloadForKinds(t *testing.T) {
	p := tiny()
	for _, k := range []WorkloadKind{Uniform, Normal, TPC} {
		wl := p.workloadFor(k, 100)
		if wl.Kind != k {
			t.Errorf("workloadFor(%v).Kind = %v", k, wl.Kind)
		}
		wl.TargetRecords = 100
		g := wl.New(p.KeySpace)
		if _, ok := g.Next(); !ok {
			t.Errorf("%v generator stalled immediately", k)
		}
	}
	if Uniform.String() != "Uniform" || Normal.String() != "Normal" || TPC.String() != "TPC" {
		t.Error("kind names wrong")
	}
}

func TestQueryOverhead(t *testing.T) {
	p := tiny()
	tab, err := p.QueryOverhead([]string{"Full-P", "ChooseBest"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var hit float64
		fmt.Sscanf(row[1], "%f", &hit)
		if hit <= 0 {
			t.Errorf("%s: reads/hit = %v, want > 0", row[0], row[1])
		}
	}
}

func TestRunSteadyForced(t *testing.T) {
	p := tiny()
	res, err := p.RunSteadyForced(SteadySpec{
		PolicyName: "ChooseBest", Delta: 0.05,
		Workload:  p.uniformWL(100),
		DatasetMB: 50, K0MB: 1, CacheMB: 1,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.WritesPerMB <= 0 {
		t.Errorf("WritesPerMB = %v", res.WritesPerMB)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	natural, err := p.RunSteadyForced(SteadySpec{
		PolicyName: "ChooseBest", Delta: 0.05,
		Workload:  p.uniformWL(100),
		DatasetMB: 50, K0MB: 1, CacheMB: 1,
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Height != natural.Height+1 {
		t.Errorf("forced height %d, natural %d", res.Height, natural.Height)
	}
}

func TestLayoutSweepSmoke(t *testing.T) {
	p := Params{Scale: 0.01, Seed: 1}.WithDefaults()
	rows, table, err := p.LayoutSweep(DefaultLayouts(3), LayoutWorkloads, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 || len(table.Rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	byCell := map[string]LayoutRow{}
	for _, r := range rows {
		if r.WritesPerMB <= 0 {
			t.Errorf("%s/%s: WritesPerMB = %v", r.Layout, r.Workload, r.WritesPerMB)
		}
		if r.MeasuredMB <= 0 {
			t.Errorf("%s/%s: measured nothing", r.Layout, r.Workload)
		}
		byCell[r.Layout+"/"+r.Workload] = r
	}
	// The tradeoff the sweep exists to show: tiering stacks runs, so it
	// must report multi-run levels where leveling reports exactly one.
	if r := byCell["leveling/uniform"]; r.MaxRuns != 1 {
		t.Errorf("leveling max runs = %d, want 1", r.MaxRuns)
	}
	if r := byCell["tiering(3)/uniform"]; r.MaxRuns < 2 || r.MaxRuns > 3 {
		t.Errorf("tiering max runs = %d, want within (1, 3]", r.MaxRuns)
	}
}
