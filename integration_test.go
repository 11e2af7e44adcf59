package lsmssd_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"lsmssd"
)

// TestIntegrationFileDeviceChurn drives a file-backed DB through sustained
// mixed traffic with every feature enabled (cache, blooms, preservation)
// and verifies contents against a model plus all structural invariants.
func TestIntegrationFileDeviceChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "churn.blk"),
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     64,
		BloomBitsPerKey: 10,
		MergePolicy:     lsmssd.ChooseBest,
		Paranoid:        true,
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(99))
	model := map[uint64][]byte{}
	for i := 0; i < 30_000; i++ {
		k := uint64(rng.Intn(3000))
		switch rng.Intn(5) {
		case 0:
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		default:
			v := []byte(fmt.Sprintf("v%d-%d", k, i))
			if err := db.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
		if i%10_000 == 9_999 {
			if err := db.Validate(); err != nil {
				t.Fatalf("after %d ops: %v", i+1, err)
			}
		}
	}

	for k := uint64(0); k < 3000; k++ {
		v, ok, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := model[k]
		if ok != wantOK || (ok && string(v) != string(want)) {
			t.Fatalf("Get(%d) = %q,%v want %q,%v", k, v, ok, want, wantOK)
		}
	}

	// Full scan agrees with the model.
	seen := 0
	var prev int64 = -1
	err = db.Scan(0, 1<<62, func(k uint64, v []byte) bool {
		if int64(k) <= prev {
			t.Fatalf("scan out of order at %d", k)
		}
		prev = int64(k)
		want, ok := model[k]
		if !ok || string(v) != string(want) {
			t.Fatalf("scan: key %d = %q, model %q (%v)", k, v, want, ok)
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Fatalf("scan saw %d keys, model has %d", seen, len(model))
	}

	s := db.Stats()
	if s.BloomSkipped == 0 {
		t.Log("bloom filters never skipped a read (possible but unusual)")
	}
	if s.CacheHits == 0 {
		t.Error("cache never hit")
	}
	t.Logf("height=%d writes=%d reads=%d bloomSkip=%d cacheHits=%d",
		s.Height, s.BlocksWritten, s.BlocksRead, s.BloomSkipped, s.CacheHits)
}

// TestIntegrationUpdateHeavy exercises overwrite-heavy traffic (updates of
// a small hot set) where record consolidation during merges matters.
func TestIntegrationUpdateHeavy(t *testing.T) {
	db, err := lsmssd.Open(lsmssd.Options{
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(5))
	latest := map[uint64]int{}
	for i := 0; i < 20_000; i++ {
		k := uint64(rng.Intn(100)) // hot set of 100 keys
		if err := db.Put(k, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		latest[k] = i
	}
	for k, i := range latest {
		v, ok, err := db.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v", k, ok, err)
		}
		if string(v) != fmt.Sprint(i) {
			t.Fatalf("Get(%d) = %s, want %d", k, v, i)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// Consolidation must keep the store near the hot-set size, not the
	// update count.
	if r := db.Stats().Records; r > 2000 {
		t.Errorf("store holds %d records for a 100-key hot set", r)
	}
}

// TestIntegrationSequentialInsert covers the classic time-series pattern:
// monotonically increasing keys, where block preservation should shine
// (new data never interleaves with old). Compaction is drained after each
// write, so both runs perform the paper's merge sequence.
func TestIntegrationSequentialInsert(t *testing.T) {
	run := func(disableP bool) int64 {
		db, err := lsmssd.Open(lsmssd.Options{
			RecordsPerBlock: 16,
			MemtableBlocks:  4,
			Gamma:           4,
			Delta:           0.2,
			CacheBlocks:     -1,
			DisablePreserve: disableP,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for k := uint64(0); k < 50_000; k++ {
			if err := db.Put(k, []byte("tick")); err != nil {
				t.Fatal(err)
			}
			if err := lsmssd.DrainCompaction(db); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Validate(); err != nil {
			t.Fatal(err)
		}
		return db.Stats().BlocksWritten
	}
	with := run(false)
	without := run(true)
	if with >= without {
		t.Errorf("preservation did not help sequential inserts: %d vs %d writes", with, without)
	}
	t.Logf("sequential inserts: %d writes with preservation, %d without", with, without)
}
