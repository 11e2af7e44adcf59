package core

import (
	"math/rand"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// driveUniform applies n random 50/50 requests over a bounded key space.
func driveUniform(t *testing.T, tr *Tree, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := block.Key(rng.Intn(4000))
		if rng.Intn(2) == 0 {
			if err := putC(tr, k, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		} else if err := delC(tr, k); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFullPolicyEmptiesSourceLevels(t *testing.T) {
	tr, err := New(testConfig(policy.NewFull(true)))
	if err != nil {
		t.Fatal(err)
	}
	tr.OnMerge(func(ev MergeEvent) {
		if !ev.Full {
			t.Errorf("Full policy produced a partial merge: %+v", ev)
		}
		if ev.From >= 1 {
			// After a full merge the source level must be empty.
			if got := tr.Level(ev.From).Blocks(); got != 0 {
				t.Errorf("L%d has %d blocks after full merge", ev.From, got)
			}
		}
	})
	driveUniform(t, tr, 4000, 1)
}

func TestTestMixedFullOnlyIntoBottom(t *testing.T) {
	tr, err := New(testConfig(policy.NewTestMixed(0.25, true)))
	if err != nil {
		t.Fatal(err)
	}
	tr.OnMerge(func(ev MergeEvent) {
		bottom := ev.To == tr.Height()-1
		if ev.From >= 1 {
			if bottom && !ev.Full {
				t.Errorf("TestMixed: partial merge into bottom: %+v", ev)
			}
		}
		// A full merge that is not into the bottom can still occur
		// degenerately when the window covers the whole level; the
		// invariant the policy guarantees is only the bottom one.
	})
	driveUniform(t, tr, 6000, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRRCyclesThroughKeySpace(t *testing.T) {
	tr, err := New(testConfig(policy.NewRR(0.25, true)))
	if err != nil {
		t.Fatal(err)
	}
	// Track the min keys of windows merged out of L1; over time they
	// must wrap around (a smaller min after a larger one).
	var mins []block.Key
	tr.OnMerge(func(ev MergeEvent) {
		if ev.From != 1 || ev.Full {
			return
		}
		// The last merged key range is observable via the policy cursor.
		if rr, ok := tr.Policy().RR(); ok {
			if k, set := rr.Cursor(1); set {
				mins = append(mins, block.Key(k))
			}
		}
	})
	driveUniform(t, tr, 20000, 3)
	if len(mins) < 4 {
		t.Skip("not enough partial merges from L1 at this scale")
	}
	wrapped := false
	for i := 1; i < len(mins); i++ {
		if mins[i] < mins[i-1] {
			wrapped = true
			break
		}
	}
	if !wrapped {
		t.Error("RR cursor never wrapped around the key space")
	}
}

func TestMixedSwitchesBetweenFullAndPartial(t *testing.T) {
	// With β=true, merges into the bottom are Full, which empties the
	// second-to-last level, so merges into it start cheap; with τ set,
	// some of those are Full too.
	p := policy.NewMixed(0.25, true, map[int]float64{2: 0.5}, true)
	tr, err := New(testConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	full, partial := 0, 0
	tr.OnMerge(func(ev MergeEvent) {
		if ev.From == 0 {
			return
		}
		if ev.Full {
			full++
		} else {
			partial++
		}
	})
	driveUniform(t, tr, 20000, 4)
	if full == 0 || partial == 0 {
		t.Errorf("Mixed never mixed: %d full, %d partial merges", full, partial)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPreservationOccursAndIsSound(t *testing.T) {
	// Sequential inserts produce non-overlapping merge inputs, the prime
	// case for block preservation.
	cfg := testConfig(policy.NewChooseBest(0.25, true))
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preserved := 0
	tr.OnMerge(func(ev MergeEvent) { preserved += ev.PreservedX + ev.PreservedY })
	for k := block.Key(0); k < 5000; k++ {
		if err := putC(tr, k, []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	if preserved == 0 {
		t.Fatal("no blocks preserved under sequential inserts")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 5000; k++ {
		if _, ok, err := tr.Get(k); !ok || err != nil {
			t.Fatalf("Get(%d) = %v, %v after preserving merges", k, ok, err)
		}
	}
}

func TestCompactionsAreRareButCounted(t *testing.T) {
	// The paper reports compactions are extremely rare in practice; when
	// they do happen they must be visible in stats and leave the level
	// valid. Force pressure with a preservation-heavy, sparse workload.
	cfg := testConfig(policy.NewChooseBest(0.25, true))
	cfg.Epsilon = 0.05 // tight waste bound makes compaction likelier
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveUniform(t, tr, 20000, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var compactions int64
	for i := 1; i < tr.Height(); i++ {
		compactions += tr.Level(i).Compactions
	}
	t.Logf("compactions across levels: %d", compactions)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, int64) {
		dev := storage.NewMemDevice()
		cfg := testConfig(policy.NewRR(0.25, true))
		cfg.Device = dev
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		driveUniform(t, tr, 8000, 42)
		c := dev.Counters()
		return c.Writes, c.Reads
	}
	w1, r1 := run()
	w2, r2 := run()
	if w1 != w2 || r1 != r2 {
		t.Errorf("runs not deterministic: writes %d/%d reads %d/%d", w1, w2, r1, r2)
	}
}

func TestGetAfterGrowthAcrossAllLevels(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.25, true)))
	if err != nil {
		t.Fatal(err)
	}
	// Enough sequential data for multiple growths.
	const n = 8000
	for k := block.Key(0); k < n; k++ {
		if err := putC(tr, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 4 {
		t.Fatalf("height = %d, want >= 4", tr.Height())
	}
	for _, k := range []block.Key{0, 1, n / 2, n - 1, 1234, 7777} {
		v, ok, err := tr.Get(k)
		if err != nil || !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) = %v,%v,%v", k, v, ok, err)
		}
	}
}

func TestForceGrow(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.25, true)))
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 500; k++ {
		putC(tr, k, []byte{1})
	}
	h := tr.Height()
	tr.ForceGrow()
	if tr.Height() != h+1 {
		t.Fatalf("height %d after ForceGrow, want %d", tr.Height(), h+1)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The tree keeps operating normally afterwards.
	for k := block.Key(500); k < 1500; k++ {
		if err := putC(tr, k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []block.Key{0, 499, 500, 1499} {
		if _, ok, _ := tr.Get(k); !ok {
			t.Errorf("key %d lost after forced growth", k)
		}
	}
}
