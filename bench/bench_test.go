package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lsmssd"
)

const contractPath = "../BENCHMARK.json"

// TestSmoke runs all four workloads, untraced and traced, at 1/50 size:
// the harness builds, the oracle passes, and every metric BENCHMARK.json
// names is emitted exactly once, with its unit, by every workload.
func TestSmoke(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	dir := t.TempDir()
	if err := runSmoke(1, filepath.Join(dir, "work"), filepath.Join(dir, "out"), &buf); err != nil {
		t.Fatal(err)
	}
	want := map[bool][]contractMetric{false: c.EndToEnd, true: c.PerLayer}
	seen := map[string]int{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Workload string
			Traced   bool
			result
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		seen[line.Workload]++
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", line.Workload, line.Traced, line.Correct, line.Attempted, line.Failed)
		}
		if got, n := len(line.Metrics), len(want[line.Traced]); got != n {
			t.Errorf("%s traced=%v: %d metrics, contract lists %d", line.Workload, line.Traced, got, n)
		}
		for _, m := range want[line.Traced] {
			got, ok := line.Metrics[m.Name]
			if !ok {
				t.Errorf("%s traced=%v: metric %s missing", line.Workload, line.Traced, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s has unit %q, contract says %q", line.Workload, m.Name, got.Unit, m.Unit)
			}
		}
		if line.Traced {
			if _, err := os.Stat(filepath.Join(dir, "out", line.Workload+".trace.json")); err != nil {
				t.Errorf("%s: no trace file: %v", line.Workload, err)
			}
		}
	}
	for _, w := range c.Workloads {
		if seen[w.Name] != 2 {
			t.Errorf("workload %s ran %d times, want untraced and traced", w.Name, seen[w.Name])
		}
	}
	if len(c.Workloads) != len(specs) {
		t.Errorf("contract lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
}

// TestContractMatchesCatalog: BENCHMARK.json and the metric tables in the
// code name the same metrics with the same units, and setup_s has the
// largest bound.
func TestContractMatchesCatalog(t *testing.T) {
	c, err := loadContract(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []contractMetric) {
		if len(defs) != len(got) {
			t.Errorf("%s: code has %d metrics, contract %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: code %s (%s), contract %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd)
	check("per_layer", perLayerDefs, c.PerLayer)
	var setup float64
	for _, m := range c.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range c.EndToEnd {
		if m.Bound > setup || m.Bound > 0.25 {
			t.Errorf("%s: bound %v exceeds setup_s's %v or 0.25", m.Name, m.Bound, setup)
		}
	}
}

// TestEveryMedianHasASource: each call type's median is measured either by
// the workload's probe or by its own closed-loop mix.
func TestEveryMedianHasASource(t *testing.T) {
	for _, s := range specs {
		p := makePlan(s, 1, 1, s.preloadKeys(1))
		var main [numLat]int
		for _, ops := range p.ops {
			for c, l := range newRecorder(ops, false, false).lat {
				main[c] += cap(l)
			}
		}
		probe := [numLat]int{lPut: s.probe.puts, lGet: s.probe.gets, lApply: s.probe.applies, lScan: s.probe.scans}
		for _, class := range []int{lPut, lGet, lApply, lScan} {
			if probe[class] == 0 && (main[class] == 0 || p.interval[0] > 0) {
				t.Errorf("%s: nothing measures the %s median in a closed loop", s.name, latNames[class])
			}
		}
		if s.probe.quietGets == 0 && (main[lGet] == 0 || main[lPut]+main[lApply] > 0) {
			t.Errorf("%s: no quiet window to count device reads per Get in", s.name)
		}
	}
}

// TestSeedDefectPinned documents why every workload pins RecordsPerBlock:
// with the derived default a file-backed store rejects 100-byte values,
// because block.RecordSize omits the 2-byte length prefix Encode writes.
// When an engine change fixes that, this test says so and the pin can go.
func TestSeedDefectPinned(t *testing.T) {
	opts := specs[0].options(filepath.Join(t.TempDir(), "db"))
	opts.RecordsPerBlock = 0
	opts.CompactionMode = lsmssd.SyncCompaction
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		k := mkKey(r.Uint64(), 0, true, false)
		if err := db.Put(k, mkValue(k, 1)); err != nil {
			if !strings.Contains(err.Error(), "exceed block size") {
				t.Fatalf("unexpected error: %v", err)
			}
			t.Logf("seed defect still present after %d puts: %v", i, err)
			return
		}
	}
	t.Log("default RecordsPerBlock now holds 100-byte values on a file-backed store: the pin in spec.go can be removed")
}

func TestOracleRejectsWrongValues(t *testing.T) {
	k := mkKey(0xabcdef123456, 1, true, false)
	v := mkValue(k, 3)
	if !checkValue(k, 3, v) || !checkValue(k, 0, v) {
		t.Fatal("a correct value was rejected")
	}
	if checkValue(k, 2, v) {
		t.Error("stale version accepted")
	}
	if checkValue(k^1<<20, 3, v) {
		t.Error("value of another key accepted")
	}
	torn := append([]byte(nil), v...)
	torn[8]++ // version of a different write, tail byte of this one
	if checkValue(k, 0, torn) {
		t.Error("stitched value accepted")
	}
	if ownerOf(k) != 1 || ownerOf(mkKey(0xabcdef123456, 0, false, true)) != 0 {
		t.Error("owner bit not honoured")
	}
	if k&1 != 0xabcdef123456&1 {
		t.Error("the shard-routing low bit must stay random")
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z := newZipf(1000, 0.99)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, 1000)
	for i := 0; i < 100_000; i++ {
		counts[z.next(r)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] || counts[10] < counts[500] {
		t.Errorf("ranks not in decreasing frequency: %d %d %d %d", counts[0], counts[1], counts[10], counts[500])
	}
	if f := float64(counts[0]) / 100_000; f < 0.10 || f > 0.17 {
		t.Errorf("rank 0 drew %.3f of samples, want about 1/zeta(1000,0.99) = 0.134", f)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v", q1, q2, q3)
	}
}

// TestCompareVerdicts: a change beyond the bound fails the command; one
// whose spread exceeds the bound is unresolved, which does not.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, median, q1, q3 float64) string {
		rep := report{Seconds: 10, Workloads: map[string]*workloadReport{"load": {Metrics: map[string]summary{
			"ops_s": {Unit: "1/s", Median: median, Q1: q1, Q3: q3},
		}}}}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100_000, 99_000, 101_000)
	if err := compareReports(contractPath, base, write("same.json", 99_000, 98_000, 100_000)); err != nil {
		t.Errorf("1%% slower was reported as a regression: %v", err)
	}
	if err := compareReports(contractPath, base, write("slow.json", 50_000, 49_500, 50_500)); err == nil {
		t.Error("half the throughput was not reported as a regression")
	}
	if err := compareReports(contractPath, base, write("noisy.json", 50_000, 20_000, 80_000)); err != nil {
		t.Errorf("a metric noisier than its bound must be unresolved, not a regression: %v", err)
	}
}
