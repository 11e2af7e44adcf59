package lsmssd_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lsmssd"
	"lsmssd/internal/manifest"
)

// reopenKeys is the key space of the reopen tests: keys with k%10 < 5 are
// stored, the rest never are. Both halves cover every residue of every
// shard mask, and absent keys fall inside the fence ranges of stored blocks,
// so every absent Get consults filters on every shard.
const reopenKeys = 8000

func reopenStored(k uint64) bool { return k%10 < 5 }

func reopenValue(k uint64) []byte { return []byte(fmt.Sprintf("value-%d", k)) }

// absentSkipFrac runs one Get per absent key for which keep returns true
// and returns the fraction of the filter lookups they made that skipped a
// block read.
func absentSkipFrac(t *testing.T, db *lsmssd.DB, keep func(uint64) bool) float64 {
	t.Helper()
	before := db.Stats()
	for k := uint64(0); k < reopenKeys; k++ {
		if reopenStored(k) || !keep(k) {
			continue
		}
		if _, ok, err := db.Get(k); err != nil || ok {
			t.Fatalf("absent key %d: found=%v err=%v", k, ok, err)
		}
	}
	after := db.Stats()
	skipped := after.BloomSkipped - before.BloomSkipped
	passed := after.BloomPassed - before.BloomPassed
	if skipped+passed == 0 {
		t.Fatal("absent Gets consulted no filter: the store never reached its device levels")
	}
	return float64(skipped) / float64(skipped+passed)
}

func checkStoredKeys(t *testing.T, db *lsmssd.DB) {
	t.Helper()
	for k := uint64(0); k < reopenKeys; k++ {
		if !reopenStored(k) {
			continue
		}
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != string(reopenValue(k)) {
			t.Fatalf("stored key %d: got (%q, %v, %v)", k, v, ok, err)
		}
	}
}

func fillReopenStore(t *testing.T, opts lsmssd.Options) *lsmssd.DB {
	t.Helper()
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < reopenKeys; k++ {
		if reopenStored(k) {
			if err := db.Put(k, reopenValue(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestBloomFiltersSurviveReopen: a closed and reopened store skips block
// reads for absent keys as often as the store that was closed did, under
// every layout and with one or several shards.
func TestBloomFiltersSurviveReopen(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, lay := range []lsmssd.Layout{lsmssd.Leveling, lsmssd.Tiering, lsmssd.LazyLeveling} {
			t.Run(fmt.Sprintf("shards%d/%s", shards, lay), func(t *testing.T) {
				opts := fileOpts(filepath.Join(t.TempDir(), "store.db"))
				opts.Shards, opts.Layout, opts.TierRuns = shards, lay, 3
				opts.BloomBitsPerKey = 10
				all := func(uint64) bool { return true }

				db := fillReopenStore(t, opts)
				checkStoredKeys(t, db)
				before := absentSkipFrac(t, db, all)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				db, err := lsmssd.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				after := absentSkipFrac(t, db, all)
				t.Logf("absent-key skip fraction %.3f before close, %.3f after reopen", before, after)
				if math.Abs(after-before) > 0.02 {
					t.Errorf("absent-key skip fraction %.3f after reopen, %.3f before close", after, before)
				}
				checkStoredKeys(t, db)
			})
		}
	}
}

// TestReopenWithCorruptLiveBlock: a live block that fails its checksum at
// Open gets no filter. Open still succeeds, a Get that needs the block
// reads it and reports ErrCorrupt, and the filters of every other block
// still skip reads for absent keys.
func TestReopenWithCorruptLiveBlock(t *testing.T) {
	opts := fileOpts(filepath.Join(t.TempDir(), "store.db"))
	opts.BloomBitsPerKey = 10
	db := fillReopenStore(t, opts)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := manifest.Load(opts.Path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	bottom := st.Runs[len(st.Runs)-1][0]
	if len(bottom) == 0 {
		t.Fatal("bottom level holds no blocks")
	}
	victim := bottom[0]
	// One byte inside the block body of the victim's slot (BlockSize plus
	// the 8-byte checksum trailer per slot) fails its checksum.
	const slot = 4096 + 8
	f, err := os.OpenFile(opts.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	off := int64(victim.ID-1)*slot + 11
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatalf("open with a corrupt live block: %v", err)
	}
	defer db.Close()
	if _, _, err := db.Get(uint64(victim.Min)); !errors.Is(err, lsmssd.ErrCorrupt) {
		t.Fatalf("Get(%d) from the corrupt block: err = %v, want ErrCorrupt", victim.Min, err)
	}
	elsewhere := func(k uint64) bool { return k < uint64(victim.Min) || k > uint64(victim.Max) }
	if frac := absentSkipFrac(t, db, elsewhere); frac < 0.9 {
		t.Errorf("absent keys outside the corrupt block skip %.3f of filter lookups, want >= 0.9", frac)
	}
}
