// Benchmarks regenerating the paper's evaluation, one per table/figure,
// plus ablations over the design choices called out in DESIGN.md.
//
// Each benchmark executes a scaled-down instance of the corresponding
// experiment per iteration and reports the experiment's own metric
// (blocks written per paper-MB of requests) via ReportMetric, so
// `go test -bench=.` prints the figure's headline numbers next to the
// usual ns/op. cmd/lsmbench runs the same experiments at larger scale and
// prints the full tables; EXPERIMENTS.md records paper-vs-measured.
package lsmssd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lsmssd"
	"lsmssd/internal/experiments"
)

// benchParams is the common scale for benchmark runs: small enough for
// go test -bench to finish in minutes, large enough for δK windows to
// have paper-like granularity.
func benchParams() experiments.Params {
	return experiments.Params{Scale: 0.02, Seed: 1}.WithDefaults()
}

// reportSteady runs one steady-state experiment per iteration and reports
// writes/MB.
func reportSteady(b *testing.B, spec experiments.SteadySpec) {
	b.Helper()
	p := benchParams()
	var last experiments.SteadyResult
	for i := 0; i < b.N; i++ {
		res, err := p.RunSteady(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.WritesPerMB, "writes/MB")
	b.ReportMetric(float64(last.Height), "levels")
}

func BenchmarkFig1KeyDistribution(b *testing.B) {
	p := benchParams()
	var skew float64
	for i := 0; i < b.N; i++ {
		res, _, err := p.Fig1(100)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: max/mean bucket frequency of L1 — the skew RR
		// induces (L2 stays at ~1).
		max := 0.0
		for _, f := range res.L1 {
			if f > max {
				max = f
			}
		}
		skew = max * float64(len(res.L1))
	}
	b.ReportMetric(skew, "L1peak/mean")
}

func BenchmarkFig2(b *testing.B) {
	for _, kind := range []experiments.WorkloadKind{experiments.Uniform, experiments.Normal} {
		wl := kind
		for _, pol := range []string{"Full", "ChooseBest", "TestMixed"} {
			b.Run(fmt.Sprintf("%s/%s/60MB", wl, pol), func(b *testing.B) {
				p := benchParams()
				spec := experiments.SteadySpec{
					PolicyName: pol, Delta: 1.0 / 20,
					DatasetMB: 60, K0MB: 1, CacheMB: 1,
				}
				spec.Workload = workloadFor(p, wl)
				reportSteady(b, spec)
			})
		}
	}
}

func BenchmarkFig3CumulativeByLevel(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		series, _, err := p.Fig3([]string{"Full", "ChooseBest"}, 30, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) == 0 {
			b.Fatal("no series")
		}
	}
}

func BenchmarkFig4CumulativeTestMixed(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Fig3([]string{"Full", "ChooseBest", "TestMixed"}, 30, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5TauCurve(b *testing.B) {
	p := benchParams()
	var curve0, curveMin float64
	for i := 0; i < b.N; i++ {
		t, err := p.Fig5(experiments.Uniform)
		if err != nil {
			b.Fatal(err)
		}
		curve0, curveMin = curveStats(t)
	}
	b.ReportMetric(curve0, "C(0)")
	b.ReportMetric(curveMin, "C(min)")
}

func curveStats(t *experiments.Table) (c0, cmin float64) {
	cmin = 1e18
	for i, row := range t.Rows {
		var c float64
		fmt.Sscanf(row[1], "%f", &c)
		if i == 0 {
			c0 = c
		}
		if c < cmin {
			cmin = c
		}
	}
	return c0, cmin
}

func BenchmarkFig6(b *testing.B) {
	for _, kind := range []experiments.WorkloadKind{experiments.Uniform, experiments.Normal, experiments.TPC} {
		wl := kind
		policies := []string{"Full-P", "Full", "RR", "ChooseBest", "Mixed"}
		for _, pol := range policies {
			b.Run(fmt.Sprintf("%s/%s/500MB", wl, pol), func(b *testing.B) {
				p := benchParams()
				spec := experiments.SteadySpec{
					PolicyName: pol, Delta: 0.05,
					DatasetMB: 500, K0MB: 16, CacheMB: 100,
				}
				spec.Workload = workloadFor(p, wl)
				reportSteady(b, spec)
			})
		}
	}
}

func BenchmarkFig7ProcessingTime(b *testing.B) {
	p := benchParams()
	var secs float64
	for i := 0; i < b.N; i++ {
		res, err := p.RunSteady(experiments.SteadySpec{
			PolicyName: "ChooseBest", Delta: 0.05,
			Workload:  workloadFor(p, experiments.Normal),
			DatasetMB: 500, K0MB: 16, CacheMB: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		secs = res.SecondsPerMB
	}
	b.ReportMetric(secs, "s/MB")
}

func BenchmarkFig8Skew(b *testing.B) {
	for _, pct := range []float64{0.005, 1, 20} {
		twoSigma := pct
		b.Run(fmt.Sprintf("2sigma=%g%%/ChooseBest", twoSigma), func(b *testing.B) {
			p := benchParams()
			wl := workloadFor(p, experiments.Normal)
			wl.Sigma = twoSigma / 100 / 2
			reportSteady(b, experiments.SteadySpec{
				PolicyName: "ChooseBest", Delta: 0.07,
				Workload:  wl,
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
		})
	}
}

func BenchmarkFig9PayloadSize(b *testing.B) {
	for _, payload := range []int{25, 1000, 4000} {
		pl := payload
		for _, pol := range []string{"ChooseBest-P", "ChooseBest"} {
			b.Run(fmt.Sprintf("payload=%d/%s", pl, pol), func(b *testing.B) {
				p := benchParams()
				wl := workloadFor(p, experiments.Uniform)
				wl.PayloadSize = pl
				reportSteady(b, experiments.SteadySpec{
					PolicyName: pol, Delta: 0.07,
					Workload:  wl,
					DatasetMB: 300, K0MB: 16, CacheMB: 16,
				})
			})
		}
	}
}

func BenchmarkFig10InsertOnly(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.Fig10([]float64{300, 600}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationPreserve isolates the block-preserving merge: identical
// runs with and without it at a payload size where preservation matters.
func BenchmarkAblationPreserve(b *testing.B) {
	for _, pol := range []string{"RR-P", "RR"} {
		b.Run(pol, func(b *testing.B) {
			p := benchParams()
			wl := workloadFor(p, experiments.Uniform)
			wl.PayloadSize = 1000
			reportSteady(b, experiments.SteadySpec{
				PolicyName: pol, Delta: 0.07,
				Workload:  wl,
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
		})
	}
}

// BenchmarkAblationDelta sweeps the merge rate δ for ChooseBest.
func BenchmarkAblationDelta(b *testing.B) {
	for _, delta := range []float64{0.02, 0.07, 0.2, 0.5} {
		d := delta
		b.Run(fmt.Sprintf("delta=%g", d), func(b *testing.B) {
			p := benchParams()
			reportSteady(b, experiments.SteadySpec{
				PolicyName: "ChooseBest", Delta: d,
				Workload:  workloadFor(p, experiments.Uniform),
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
		})
	}
}

// BenchmarkAblationPartitioned compares full ChooseBest with the
// HyperLevelDB-style pre-partitioned restriction.
func BenchmarkAblationPartitioned(b *testing.B) {
	for _, pol := range []string{"ChooseBestPart", "ChooseBest"} {
		b.Run(pol, func(b *testing.B) {
			p := benchParams()
			reportSteady(b, experiments.SteadySpec{
				PolicyName: pol, Delta: 0.07,
				Workload:  workloadFor(p, experiments.Uniform),
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
		})
	}
}

// BenchmarkAblationEpsilon sweeps the waste bound ε.
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0.05, 0.2, 0.4} {
		e := eps
		b.Run(fmt.Sprintf("epsilon=%g", e), func(b *testing.B) {
			p := benchParams()
			p.Epsilon = e
			reportSteady(b, experiments.SteadySpec{
				PolicyName: "ChooseBest", Delta: 0.07,
				Workload:  workloadFor(p, experiments.Uniform),
				DatasetMB: 300, K0MB: 16, CacheMB: 16,
			})
		})
	}
}

// BenchmarkAblationBloom measures lookup read savings from per-block
// Bloom filters under a miss-heavy lookup mix.
func BenchmarkAblationBloom(b *testing.B) {
	for _, bits := range []float64{0, 10} {
		bb := bits
		b.Run(fmt.Sprintf("bits=%g", bb), func(b *testing.B) {
			db, err := lsmssd.Open(lsmssd.Options{
				MemtableBlocks:  64,
				BloomBitsPerKey: bb,
				CacheBlocks:     -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for k := uint64(0); k < 100_000; k += 2 {
				if err := db.Put(k, []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			reads0 := db.Stats().BlocksRead
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := db.Get(uint64(i%100_000)*2 + 1); ok {
					b.Fatal("odd key present")
				}
			}
			b.ReportMetric(float64(db.Stats().BlocksRead-reads0)/float64(b.N), "reads/miss")
		})
	}
}

// --- Microbenchmarks on the public API -----------------------------------

func BenchmarkPut(b *testing.B) {
	db, err := lsmssd.Open(lsmssd.Options{CacheBlocks: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(uint64(i)*2654435761%1_000_000_000, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(db.Stats().BlocksWritten)/float64(b.N), "writes/op")
}

func BenchmarkGet(b *testing.B) {
	db, err := lsmssd.Open(lsmssd.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 200_000
	for i := uint64(0); i < n; i++ {
		if err := db.Put(i, []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := db.Get(uint64(i) % n); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkScan has two shapes. dense reads 1,000 consecutive keys, so
// [lo, hi] spans exactly what it returns. sparse asks for 100 keys over
// [lo, 2^40−1] like the benchmark module's sparse scans, on a store whose
// records all sit in L0: what it costs beyond the 100 keys is what the
// span, not the result, makes L0 pay.
func BenchmarkScan(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		db, err := lsmssd.Open(lsmssd.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		const n = 100_000
		for i := uint64(0); i < n; i++ {
			if err := db.Put(i, []byte("value")); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := uint64(i) % (n - 1000)
			count := 0
			db.Scan(lo, lo+999, func(uint64, []byte) bool {
				count++
				return true
			})
			if count == 0 {
				b.Fatal("empty scan")
			}
		}
	})
	for _, l0 := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("sparse/L0=%dk", l0/1000), func(b *testing.B) {
			db := sparseScanStore(b, l0)
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sparseScan(b, db, uint64(i)*2654435761%(sparseKeys/2))
			}
		})
	}
}

// sparseKeys bounds the keys of the sparse scan store: 2^40, the key space
// of the benchmark module.
const sparseKeys = 1 << 40

// sparseScanStore opens a sync-mode, WAL-off, cache-less store and puts n
// random keys below sparseKeys, few enough that no merge runs: every record
// stays in L0.
func sparseScanStore(tb testing.TB, n int) *lsmssd.DB {
	tb.Helper()
	db, err := lsmssd.Open(lsmssd.Options{CacheBlocks: -1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	payload := make([]byte, 100)
	for i := 0; i < n; i++ {
		if err := db.Put(rng.Uint64()%sparseKeys, payload); err != nil {
			tb.Fatal(err)
		}
	}
	if got := db.Stats().MemtableRecords; got != n {
		tb.Fatalf("L0 holds %d records, want all %d", got, n)
	}
	return db
}

// sparseScan reads the first 100 keys of [lo, sparseKeys−1].
func sparseScan(tb testing.TB, db *lsmssd.DB, lo uint64) {
	got := 0
	err := db.Scan(lo, sparseKeys-1, func(uint64, []byte) bool {
		got++
		return got < 100
	})
	if err != nil || got != 100 {
		tb.Fatalf("sparse scan from %d: %d keys, err %v", lo, got, err)
	}
}

// TestScanAllocsIndependentOfL0 pins what a sparse scan allocates: the same
// count whether L0 holds 1k or 8k records, because L0 is read through a
// cursor rather than copied.
func TestScanAllocsIndependentOfL0(t *testing.T) {
	var allocs [2]float64
	for i, l0 := range []int{1000, 8000} {
		db := sparseScanStore(t, l0)
		allocs[i] = testing.AllocsPerRun(50, func() { sparseScan(t, db, sparseKeys/4) })
		db.Close()
	}
	if allocs[0] != allocs[1] || allocs[1] > 12 {
		t.Fatalf("sparse scan allocs: %v at L0 = 1k, %v at L0 = 8k; want equal and <= 12", allocs[0], allocs[1])
	}
}

func workloadFor(p experiments.Params, kind experiments.WorkloadKind) experiments.WorkloadSpec {
	switch kind {
	case experiments.Normal:
		return experiments.WorkloadSpec{Kind: experiments.Normal, Sigma: 0.005, Omega: 200, PayloadSize: 100, InsertRatio: 0.5}
	case experiments.TPC:
		return experiments.WorkloadSpec{Kind: experiments.TPC, PayloadSize: 100, InsertRatio: 0.5}
	default:
		return experiments.WorkloadSpec{Kind: experiments.Uniform, PayloadSize: 100, InsertRatio: 0.5}
	}
}

// BenchmarkQueryOverhead reproduces the technical report's query
// experiment: lookup and scan read costs per policy at steady state.
func BenchmarkQueryOverhead(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := p.QueryOverhead([]string{"Full-P", "ChooseBest"}, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionForcedGrowth explores the paper's open question of
// strategic level growth: with the bottom level nearly full (the most
// expensive regime in Figure 6), does adding the next level early reduce
// steady-state writes the way natural growth does at the 1700MB crossover?
func BenchmarkExtensionForcedGrowth(b *testing.B) {
	for _, forced := range []bool{false, true} {
		name := "natural"
		if forced {
			name = "forced"
		}
		b.Run(name, func(b *testing.B) {
			p := benchParams()
			var writesPerMB float64
			for i := 0; i < b.N; i++ {
				res, err := p.RunSteadyForced(experiments.SteadySpec{
					PolicyName: "ChooseBest", Delta: 0.05,
					Workload:  workloadFor(p, experiments.Uniform),
					DatasetMB: 1500, K0MB: 16, CacheMB: 100, // bottom ~90% full
				}, forced)
				if err != nil {
					b.Fatal(err)
				}
				writesPerMB = res.WritesPerMB
			}
			b.ReportMetric(writesPerMB, "writes/MB")
		})
	}
}
