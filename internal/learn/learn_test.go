package learn

import (
	"math"
	"testing"

	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
	"lsmssd/internal/workload"
)

// newMixed builds a zero-parameter Mixed policy and unwraps its tunable
// granularity.
func newMixed(t *testing.T) (*policy.Policy, *policy.Mixed) {
	t.Helper()
	pol := policy.NewMixed(0.25, true, nil, false)
	m, ok := pol.Mixed()
	if !ok {
		t.Fatal("Mixed() failed on a Mixed policy")
	}
	return pol, m
}

func TestLearnBetaOnThreeLevelTree(t *testing.T) {
	// A 3-level tree has no internal thresholds; only β is learned.
	pol, m := newMixed(t)
	tree, err := core.New(core.Config{
		Device:        storage.NewMemDevice(),
		Policy:        pol,
		BlockCapacity: 8,
		K0:            2,
		Gamma:         4,
		Epsilon:       0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One generator throughout: it fills to TargetKeys, then holds the
	// dataset size steady (the paper's steady-state setup).
	gen := workload.NewUniform(workload.UniformConfig{
		KeySpace: 1 << 40, PayloadSize: 20, InsertRatio: 0.5, TargetKeys: 150, Seed: 9,
	})
	if _, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 400); err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 3 {
		t.Fatalf("height = %d, want 3", tree.Height())
	}
	res, err := Learn(tree, m, gen, Options{BetaWindowBytes: 1 << 18, MaxBytesPerCycle: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Taus) != 0 {
		t.Errorf("3-level tree learned internal taus: %v", res.Taus)
	}
	if res.Measurements != 2 {
		t.Errorf("measurements = %d, want 2 (β true/false)", res.Measurements)
	}
	if m.Beta() != res.Beta {
		t.Error("result and policy disagree on β")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLearnFourLevelTreeFindsTau(t *testing.T) {
	pol, m := newMixed(t)
	tree, err := core.New(core.Config{
		Device:        storage.NewMemDevice(),
		Policy:        pol,
		BlockCapacity: 8,
		K0:            2,
		Gamma:         3,
		Epsilon:       0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(workload.UniformConfig{
		KeySpace: 1 << 40, PayloadSize: 20, InsertRatio: 0.5, TargetKeys: 320, Seed: 9,
	})
	if _, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 900); err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 4 {
		t.Fatalf("height = %d, want 4", tree.Height())
	}
	res, err := Learn(tree, m, gen, Options{
		TauGrid:          []float64{0, 0.25, 0.5, 0.75, 1.0},
		BetaWindowBytes:  1 << 18,
		MaxBytesPerCycle: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	tau, ok := res.Taus[2]
	if !ok {
		t.Fatal("τ2 not learned")
	}
	if tau < 0 || tau > 1 {
		t.Errorf("τ2 = %v outside [0,1]", tau)
	}
	if m.Tau(2) != tau {
		t.Error("policy τ2 not set to learned value")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("learned τ2=%v β=%v after %d measurements, %d bytes",
		tau, res.Beta, res.Measurements, res.BytesDriven)
}

func TestCurveShape(t *testing.T) {
	pol, m := newMixed(t)
	tree, err := core.New(core.Config{
		Device:        storage.NewMemDevice(),
		Policy:        pol,
		BlockCapacity: 8,
		K0:            2,
		Gamma:         3,
		Epsilon:       0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(workload.UniformConfig{
		KeySpace: 1 << 40, PayloadSize: 20, InsertRatio: 0.5, TargetKeys: 320, Seed: 9,
	})
	if _, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 900); err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 4 {
		t.Fatalf("height = %d, want 4", tree.Height())
	}
	curve, err := Curve(tree, m, gen, 2, Options{
		TauGrid:          []float64{0, 0.5, 1.0},
		MaxBytesPerCycle: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for i, c := range curve {
		if c <= 0 || math.IsInf(c, 1) {
			t.Errorf("curve[%d] = %v not a positive finite cost", i, c)
		}
	}
}

func TestGoldenSectionFindsMinimum(t *testing.T) {
	evalCount := 0
	quad := func(i int) (float64, error) {
		evalCount++
		x := float64(i) - 13
		return x * x, nil
	}
	best, err := goldenSection(21, quad)
	if err != nil {
		t.Fatal(err)
	}
	if best != 13 {
		t.Errorf("golden section found %d, want 13", best)
	}
	if evalCount > 21 {
		t.Errorf("golden section used %d evaluations on 21 points", evalCount)
	}
	// Monotone function: minimum at an endpoint.
	best, err = goldenSection(11, func(i int) (float64, error) { return float64(i), nil })
	if err != nil || best != 0 {
		t.Errorf("monotone: got %d, %v", best, err)
	}
	best, err = goldenSection(11, func(i int) (float64, error) { return float64(-i), nil })
	if err != nil || best != 10 {
		t.Errorf("descending: got %d, %v", best, err)
	}
	// Tiny domains.
	for n := 1; n <= 3; n++ {
		if _, err := goldenSection(n, quad); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestLearnGoldenSectionOnTree(t *testing.T) {
	pol, m := newMixed(t)
	tree, err := core.New(core.Config{
		Device:        storage.NewMemDevice(),
		Policy:        pol,
		BlockCapacity: 8,
		K0:            2,
		Gamma:         3,
		Epsilon:       0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(workload.UniformConfig{
		KeySpace: 1 << 40, PayloadSize: 20, InsertRatio: 0.5, TargetKeys: 320, Seed: 9,
	})
	if _, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 900); err != nil {
		t.Fatal(err)
	}
	if tree.Height() != 4 {
		t.Fatalf("height = %d, want 4", tree.Height())
	}
	res, err := Learn(tree, m, gen, Options{
		Search:           GoldenSection,
		TauGrid:          []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0},
		BetaWindowBytes:  1 << 18,
		MaxBytesPerCycle: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Taus[2]; !ok {
		t.Fatal("golden section learned no τ2")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLearnExhaustiveOnTree(t *testing.T) {
	pol, m := newMixed(t)
	tree, err := core.New(core.Config{
		Device:        storage.NewMemDevice(),
		Policy:        pol,
		BlockCapacity: 8,
		K0:            2,
		Gamma:         3,
		Epsilon:       0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniform(workload.UniformConfig{
		KeySpace: 1 << 40, PayloadSize: 20, InsertRatio: 0.5, TargetKeys: 320, Seed: 9,
	})
	if _, err := workload.DriveN(gen, compaction.Driver{Tree: tree}, 900); err != nil {
		t.Fatal(err)
	}
	res, err := Learn(tree, m, gen, Options{
		Search:           Exhaustive,
		TauGrid:          []float64{0, 0.5, 1.0},
		BetaWindowBytes:  1 << 18,
		MaxBytesPerCycle: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive measures every grid point for τ2, plus 2 β windows.
	if res.Measurements != 3+2 {
		t.Errorf("measurements = %d, want 5", res.Measurements)
	}
}
