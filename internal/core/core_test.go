package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

func testConfig(p *policy.Policy) Config {
	return Config{
		Device:        storage.NewMemDevice(),
		Policy:        p,
		BlockCapacity: 4,
		K0:            2, // L0 overflows at 8 records
		Gamma:         4,
		Epsilon:       0.2,
		Seed:          1,
	}
}

func allPolicies(delta float64) map[string]func() *policy.Policy {
	return map[string]func() *policy.Policy{
		"Full":         func() *policy.Policy { return policy.NewFull(true) },
		"Full-P":       func() *policy.Policy { return policy.NewFull(false) },
		"RR":           func() *policy.Policy { return policy.NewRR(delta, true) },
		"RR-P":         func() *policy.Policy { return policy.NewRR(delta, false) },
		"ChooseBest":   func() *policy.Policy { return policy.NewChooseBest(delta, true) },
		"ChooseBest-P": func() *policy.Policy { return policy.NewChooseBest(delta, false) },
		"TestMixed":    func() *policy.Policy { return policy.NewTestMixed(delta, true) },
		"Mixed":        func() *policy.Policy { return policy.NewMixed(delta, true, map[int]float64{2: 0.4}, true) },
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Device: storage.NewMemDevice()}); err == nil {
		t.Error("config without policy accepted")
	}
	cfg := testConfig(policy.NewFull(true))
	cfg.Gamma = 1
	if _, err := New(cfg); err == nil {
		t.Error("Gamma=1 accepted")
	}
	cfg = testConfig(policy.NewFull(true))
	cfg.Epsilon = 0.9
	if _, err := New(cfg); err == nil {
		t.Error("Epsilon=0.9 accepted")
	}
}

func TestPutGetBasic(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.5, true)))
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 100; k++ {
		if err := putC(tr, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	for k := block.Key(0); k < 100; k++ {
		v, ok, err := tr.Get(k)
		if err != nil || !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) = %v,%v,%v", k, v, ok, err)
		}
	}
	if _, ok, _ := tr.Get(1000); ok {
		t.Error("Get of absent key succeeded")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, want >= 3 after 100 records with K0*B=8", tr.Height())
	}
}

func TestDeleteSemantics(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.5, true)))
	if err != nil {
		t.Fatal(err)
	}
	// Push a record down into storage levels, then delete it.
	for k := block.Key(0); k < 50; k++ {
		putC(tr, k, []byte{byte(k)})
	}
	if err := delC(tr, 7); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Get(7); ok {
		t.Error("deleted key still visible")
	}
	// Push the tombstone down through more traffic; key stays dead.
	for k := block.Key(100); k < 200; k++ {
		putC(tr, k, []byte{1})
	}
	if _, ok, _ := tr.Get(7); ok {
		t.Error("deleted key resurfaced after merges")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Re-insert revives it.
	putC(tr, 7, []byte{77})
	if v, ok, _ := tr.Get(7); !ok || v[0] != 77 {
		t.Error("re-inserted key not visible")
	}
}

func TestScan(t *testing.T) {
	tr, err := New(testConfig(policy.NewRR(0.5, true)))
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 60; k += 2 {
		putC(tr, k, []byte{byte(k)})
	}
	delC(tr, 10)
	putC(tr, 12, []byte{99}) // update shadows the stored version
	var got []block.Key
	err = tr.Scan(5, 20, func(k block.Key, p []byte) bool {
		got = append(got, k)
		if k == 12 && p[0] != 99 {
			t.Error("scan returned stale version of 12")
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []block.Key{6, 8, 12, 14, 16, 18, 20}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scan = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	tr.Scan(0, 100, func(block.Key, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestGrowthRelabelsLevels(t *testing.T) {
	tr, err := New(testConfig(policy.NewFull(true)))
	if err != nil {
		t.Fatal(err)
	}
	h0 := tr.Height()
	for k := block.Key(0); k < 2000; k++ {
		if err := putC(tr, k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() <= h0 {
		t.Fatalf("tree never grew: height %d", tr.Height())
	}
	if tr.Stats().Grows == 0 {
		t.Error("Grows stat not incremented")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEventsAccountForAllWrites(t *testing.T) {
	for name, mk := range allPolicies(0.25) {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(mk())
			tr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var eventWrites int64
			tr.OnMerge(func(ev MergeEvent) {
				eventWrites += int64(ev.BlocksWritten + ev.RepairWrites + ev.CompactionWrites)
			})
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3000; i++ {
				k := block.Key(rng.Intn(500))
				if rng.Intn(3) == 0 {
					delC(tr, k)
				} else {
					putC(tr, k, []byte{byte(i)})
				}
			}
			dev := cfg.Device.Counters()
			if dev.Writes != eventWrites {
				t.Errorf("device writes %d != merge-event writes %d", dev.Writes, eventWrites)
			}
			var levelWrites int64
			for i := 1; i < tr.Height(); i++ {
				levelWrites += tr.Level(i).BlocksWritten
			}
			if dev.Writes != levelWrites {
				t.Errorf("device writes %d != per-level writes %d", dev.Writes, levelWrites)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestModelCheckAllPolicies drives every policy with a random workload and
// checks the tree against a flat map model, plus all invariants.
func TestModelCheckAllPolicies(t *testing.T) {
	for name, mk := range allPolicies(0.25) {
		t.Run(name, func(t *testing.T) {
			tr, err := New(testConfig(mk()))
			if err != nil {
				t.Fatal(err)
			}
			model := map[block.Key][]byte{}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 5000; i++ {
				k := block.Key(rng.Intn(300))
				switch rng.Intn(4) {
				case 0:
					if err := delC(tr, k); err != nil {
						t.Fatal(err)
					}
					delete(model, k)
				default:
					v := []byte{byte(i), byte(i >> 8)}
					if err := putC(tr, k, v); err != nil {
						t.Fatal(err)
					}
					model[k] = v
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			for k := block.Key(0); k < 300; k++ {
				v, ok, err := tr.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				want, wantOK := model[k]
				if ok != wantOK {
					t.Fatalf("Get(%d) presence = %v, want %v", k, ok, wantOK)
				}
				if ok && (v[0] != want[0] || v[1] != want[1]) {
					t.Fatalf("Get(%d) = %v, want %v", k, v, want)
				}
			}
			// Scan must visit exactly the model's keys in order.
			var prev int64 = -1
			count := 0
			err = tr.Scan(0, 1000, func(k block.Key, p []byte) bool {
				if int64(k) <= prev {
					t.Fatalf("scan out of order at %d", k)
				}
				prev = int64(k)
				if _, ok := model[k]; !ok {
					t.Fatalf("scan surfaced deleted/absent key %d", k)
				}
				count++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != len(model) {
				t.Errorf("scan visited %d keys, model has %d", count, len(model))
			}
		})
	}
}

func TestBloomFiltersCutAbsentReads(t *testing.T) {
	cfg := testConfig(policy.NewChooseBest(0.25, true))
	cfg.BloomBitsPerKey = 10
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 400; k += 2 {
		putC(tr, k, []byte{1})
	}
	check := func(name string, tr *Tree) {
		t.Helper()
		reads0 := cfg.Device.Counters().Reads
		for k := block.Key(1); k < 400; k += 2 {
			if _, ok, _ := tr.Get(k); ok {
				t.Fatalf("%s: odd key %d present", name, k)
			}
		}
		if skipped, _ := tr.Blooms().Counts(); skipped == 0 {
			t.Errorf("%s: bloom filters never skipped a read", name)
		}
		reads := cfg.Device.Counters().Reads - reads0
		if reads > 40 { // 200 absent lookups, nearly all should be filtered
			t.Errorf("%s: absent lookups cost %d reads with blooms on", name, reads)
		}
		// And presence still works.
		for k := block.Key(0); k < 400; k += 2 {
			if _, ok, _ := tr.Get(k); !ok {
				t.Fatalf("%s: present key %d lost with blooms on", name, k)
			}
		}
	}
	check("live", tr)

	// A tree restored over the same device rebuilds every live block's
	// filter, so it reads no more for absent keys than the tree that wrote it.
	v, err := tr.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	st := v.Export()
	v.Release()
	restored, err := Restore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Blooms().Len(), tr.Blooms().Len(); got != want {
		t.Errorf("restored tree holds %d filters, the live tree %d", got, want)
	}
	check("restored", restored)
}

func TestCacheReducesReads(t *testing.T) {
	mk := func(cacheBlocks int) int64 {
		cfg := testConfig(policy.NewChooseBest(0.25, true))
		cfg.CacheBlocks = cacheBlocks
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := block.Key(0); k < 300; k++ {
			putC(tr, k, []byte{1})
		}
		reads0 := cfg.Device.Counters().Reads
		for i := 0; i < 5; i++ {
			for k := block.Key(0); k < 300; k++ {
				tr.Get(k)
			}
		}
		return cfg.Device.Counters().Reads - reads0
	}
	cold := mk(0)
	warm := mk(1024)
	if warm >= cold {
		t.Errorf("cache did not reduce reads: %d vs %d", warm, cold)
	}
	if warm != 0 {
		// All blocks fit in a 1024-block cache after being written
		// through it, so repeated lookups should be free.
		t.Errorf("warm reads = %d, want 0", warm)
	}
}

func TestSnapshotShape(t *testing.T) {
	tr, err := New(testConfig(policy.NewFull(false)))
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 100; k++ {
		putC(tr, k, []byte{1})
	}
	v, err := tr.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	levels := v.Levels()
	if v.Height() != tr.Height() || len(levels) != tr.Height()-1 {
		t.Errorf("view height %d/%d levels inconsistent", v.Height(), len(levels))
	}
	if st := tr.Stats(); st.Inserts != 100 || st.Requests != 100 {
		t.Errorf("stats = %+v", st)
	}
	written := int64(0)
	for i, lv := range levels {
		if lv.Number != i+1 {
			t.Errorf("level %d numbered %d", i+1, lv.Number)
		}
		written += lv.BlocksWritten
	}
	if written == 0 || written != tr.Device().Counters().Writes {
		t.Errorf("per-level writes sum to %d, device counted %d", written, tr.Device().Counters().Writes)
	}
}

// Property: random op sequences against random policies keep the model
// equivalence (smaller scale than TestModelCheckAllPolicies but with
// randomized policy parameters and seeds).
func TestQuickTreeModel(t *testing.T) {
	f := func(seed int64, policyPick, deltaRaw uint8, preserve bool) bool {
		delta := float64(deltaRaw%40+10) / 100 // 0.10..0.49
		var p *policy.Policy
		switch policyPick % 5 {
		case 0:
			p = policy.NewFull(preserve)
		case 1:
			p = policy.NewRR(delta, preserve)
		case 2:
			p = policy.NewChooseBest(delta, preserve)
		case 3:
			p = policy.NewTestMixed(delta, preserve)
		default:
			p = policy.NewMixed(delta, preserve, map[int]float64{2: 0.5}, seed%2 == 0)
		}
		cfg := testConfig(p)
		cfg.Seed = seed
		tr, err := New(cfg)
		if err != nil {
			return false
		}
		model := map[block.Key]byte{}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1200; i++ {
			k := block.Key(rng.Intn(150))
			if rng.Intn(3) == 0 {
				if delC(tr, k) != nil {
					return false
				}
				delete(model, k)
			} else {
				v := byte(rng.Intn(256))
				if putC(tr, k, []byte{v}) != nil {
					return false
				}
				model[k] = v
			}
		}
		if tr.Validate() != nil {
			return false
		}
		for k := block.Key(0); k < 150; k++ {
			v, ok, err := tr.Get(k)
			if err != nil {
				return false
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && v[0] != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
