package lsmssd_test

// End-to-end coverage of the non-leveling layouts: tiering and lazy
// leveling must serve the same reads as leveling for the same history,
// survive checkpoint/reopen cycles, hold the structural invariants under
// Paranoid, and be refused on a layout-skewed reopen.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lsmssd"
)

func layoutOptions(l lsmssd.Layout, t int) lsmssd.Options {
	o := smallOptions()
	o.Layout = l
	o.TierRuns = t
	o.Paranoid = true
	return o
}

// TestLayoutsAgree drives an identical mixed workload (puts, overwrites,
// deletes) through every layout and requires identical read results —
// the layout axis changes write schedules, never visible contents.
func TestLayoutsAgree(t *testing.T) {
	layouts := []struct {
		layout lsmssd.Layout
		runs   int
	}{
		{lsmssd.Leveling, 0},
		{lsmssd.Tiering, 2},
		{lsmssd.Tiering, 4},
		{lsmssd.LazyLeveling, 3},
	}
	type result struct {
		vals map[uint64]string
		scan string
	}
	var results []result
	for _, lc := range layouts {
		name := fmt.Sprintf("%v-T%d", lc.layout, lc.runs)
		db, err := lsmssd.Open(layoutOptions(lc.layout, lc.runs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := uint64(0); k < 1200; k++ {
			if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Fatalf("%s: put %d: %v", name, k, err)
			}
		}
		for k := uint64(0); k < 1200; k += 5 {
			if err := db.Delete(k); err != nil {
				t.Fatalf("%s: delete %d: %v", name, k, err)
			}
		}
		for k := uint64(0); k < 1200; k += 7 {
			if err := db.Put(k, []byte(fmt.Sprintf("w%d", k))); err != nil {
				t.Fatalf("%s: rewrite %d: %v", name, k, err)
			}
		}
		if err := db.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", name, err)
		}
		r := result{vals: make(map[uint64]string)}
		for k := uint64(0); k < 1200; k++ {
			v, ok, err := db.Get(k)
			if err != nil {
				t.Fatalf("%s: get %d: %v", name, k, err)
			}
			if ok {
				r.vals[k] = string(v)
			}
		}
		var sb strings.Builder
		if err := db.Scan(0, 1199, func(k uint64, v []byte) bool {
			fmt.Fprintf(&sb, "%d=%s;", k, v)
			return true
		}); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		r.scan = sb.String()
		if err := db.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if len(results[i].vals) != len(results[0].vals) {
			t.Fatalf("layout %d: %d live keys, leveling has %d",
				i, len(results[i].vals), len(results[0].vals))
		}
		for k, v := range results[0].vals {
			if results[i].vals[k] != v {
				t.Fatalf("layout %d: key %d = %q, leveling has %q", i, k, results[i].vals[k], v)
			}
		}
		if results[i].scan != results[0].scan {
			t.Fatalf("layout %d: scan output diverges from leveling", i)
		}
	}
}

// TestTieredLevelsHoldMultipleRuns asserts the tiering layout actually
// tiers: some level must report more than one sorted run at some point,
// and no level may ever exceed the T budget at rest.
func TestTieredLevelsHoldMultipleRuns(t *testing.T) {
	const tierRuns = 3
	db, err := lsmssd.Open(layoutOptions(lsmssd.Tiering, tierRuns))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sawMulti := false
	for k := uint64(0); k < 2000; k++ {
		if err := db.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if k%50 != 0 {
			continue
		}
		for _, lv := range db.Stats().Levels {
			if lv.Runs > 1 {
				sawMulti = true
			}
			if lv.Runs > tierRuns {
				t.Fatalf("L%d holds %d runs at rest, budget is %d", lv.Level, lv.Runs, tierRuns)
			}
		}
	}
	if !sawMulti {
		t.Fatal("tiering never produced a level with more than one sorted run")
	}
}

// TestLazyLevelingBottomStaysLeveled asserts lazy leveling's contract:
// the bottom level always holds exactly one run while some upper level
// tiers.
func TestLazyLevelingBottomStaysLeveled(t *testing.T) {
	db, err := lsmssd.Open(layoutOptions(lsmssd.LazyLeveling, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sawMulti := false
	for k := uint64(0); k < 3000; k++ {
		if err := db.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if k%100 != 0 {
			continue
		}
		levels := db.Stats().Levels
		if len(levels) == 0 {
			continue
		}
		for _, lv := range levels[:len(levels)-1] {
			if lv.Runs > 1 {
				sawMulti = true
			}
		}
		if bottom := levels[len(levels)-1]; bottom.Runs != 1 {
			t.Fatalf("lazy leveling bottom L%d holds %d runs, want 1", bottom.Level, bottom.Runs)
		}
	}
	if len(db.Stats().Levels) < 2 {
		t.Fatal("workload too small: tree never grew past one storage level")
	}
	if !sawMulti {
		t.Fatal("lazy leveling never tiered an upper level")
	}
}

// TestTieringPersistence checkpoints a tiered store mid-accumulation and
// reopens it: the manifest must carry the multi-run structure and the
// reopened store must serve the same data.
func TestTieringPersistence(t *testing.T) {
	for _, lc := range []struct {
		name   string
		layout lsmssd.Layout
	}{
		{"tiering", lsmssd.Tiering},
		{"lazy", lsmssd.LazyLeveling},
	} {
		t.Run(lc.name, func(t *testing.T) {
			opts := layoutOptions(lc.layout, 3)
			opts.Path = filepath.Join(t.TempDir(), "db.blk")
			opts.WAL.Sync = lsmssd.SyncNever
			db, err := lsmssd.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(0); k < 900; k++ {
				if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(0); k < 900; k += 4 {
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = lsmssd.Open(opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			if err := db.Validate(); err != nil {
				t.Fatalf("reopened state: %v", err)
			}
			for k := uint64(0); k < 900; k++ {
				v, ok, err := db.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if k%4 == 0 {
					if ok {
						t.Fatalf("deleted key %d visible after reopen", k)
					}
					continue
				}
				if !ok || string(v) != fmt.Sprintf("v%d", k) {
					t.Fatalf("Get(%d) = %q,%v after reopen", k, v, ok)
				}
			}
		})
	}
}

// TestLayoutMismatchRefused pins the reopen contract: a store written
// under one layout must refuse to open under another, naming both.
func TestLayoutMismatchRefused(t *testing.T) {
	opts := layoutOptions(lsmssd.Tiering, 3)
	opts.Path = filepath.Join(t.TempDir(), "db.blk")
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 400; k++ {
		if err := db.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cases := map[string]lsmssd.Options{}
	lev := opts
	lev.Layout, lev.TierRuns = lsmssd.Leveling, 0
	cases["leveling"] = lev
	lazy := opts
	lazy.Layout = lsmssd.LazyLeveling
	cases["lazy"] = lazy
	runs := opts
	runs.TierRuns = 5
	cases["tier-runs-skew"] = runs
	for name, o := range cases {
		if _, err := lsmssd.Open(o); err == nil || !strings.Contains(err.Error(), "layout") {
			t.Errorf("%s: reopen error = %v, want layout mismatch", name, err)
		}
	}

	// The matching layout still opens.
	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutValidate covers the new options' validation errors.
func TestLayoutValidate(t *testing.T) {
	bad := lsmssd.Options{Layout: lsmssd.Layout(9)}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Layout") {
		t.Errorf("Layout 9: Validate = %v", err)
	}
	bad = lsmssd.Options{TierRuns: 1}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "TierRuns") {
		t.Errorf("TierRuns 1: Validate = %v", err)
	}
	if err := (lsmssd.Options{Layout: lsmssd.Tiering, TierRuns: 2}).Validate(); err != nil {
		t.Errorf("valid tiering rejected: %v", err)
	}
	for l, want := range map[lsmssd.Layout]string{
		lsmssd.Leveling:     "leveling",
		lsmssd.Tiering:      "tiering",
		lsmssd.LazyLeveling: "lazy",
	} {
		if got := l.String(); got != want {
			t.Errorf("Layout(%d).String() = %q, want %q", l, got, want)
		}
	}
}
