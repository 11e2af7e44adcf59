package lsmssd_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"lsmssd"
)

// TestRaceStress hammers one file-backed DB from concurrent writers,
// readers, scanners, and checkpointers. The DB serializes internally, so
// the test's job is to give the race detector (go test -race ./...)
// enough interleavings to catch any path that escapes the lock — stats
// snapshots, checkpoint I/O, tuning views, cache and bloom bookkeeping.
func TestRaceStress(t *testing.T) {
	raceStress(t, lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "race.blk"),
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     64,
		BloomBitsPerKey: 8,
	})
}

// TestRaceStressTiering and TestRaceStressLazy repeat the stress under
// the multi-run layouts: the read path walks several runs per level and
// whole-run merges retire blocks in bulk, so snapshot lifetimes and the
// deferred-free protocol see different interleavings than leveling.
func TestRaceStressTiering(t *testing.T) {
	raceStress(t, lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "race.blk"),
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     64,
		BloomBitsPerKey: 8,
		Layout:          lsmssd.Tiering,
		TierRuns:        3,
	})
}

func TestRaceStressLazy(t *testing.T) {
	raceStress(t, lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "race.blk"),
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     64,
		BloomBitsPerKey: 8,
		Layout:          lsmssd.LazyLeveling,
		TierRuns:        3,
	})
}

func raceStress(t *testing.T, opts lsmssd.Options) {
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}()

	const keySpace = 2000
	ops := 3000
	if testing.Short() {
		ops = 400
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	// Writers: mixed Put/Delete traffic driving real merges.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keySpace))
				if rng.Intn(5) == 0 {
					if err := db.Delete(k); err != nil {
						fail("writer %d: Delete(%d): %v", w, k, err)
						return
					}
				} else if err := db.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					fail("writer %d: Put(%d): %v", w, k, err)
					return
				}
			}
		}()
	}

	// Readers: point lookups across the key space.
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < ops; i++ {
				if _, _, err := db.Get(uint64(rng.Intn(keySpace))); err != nil {
					fail("reader %d: Get: %v", r, err)
					return
				}
			}
		}()
	}

	// Scanner: range reads crossing level boundaries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for i := 0; i < ops/10; i++ {
			lo := uint64(rng.Intn(keySpace))
			n := 0
			err := db.Scan(lo, lo+50, func(uint64, []byte) bool {
				n++
				return n < 200
			})
			if err != nil {
				fail("scanner: Scan: %v", err)
				return
			}
		}
	}()

	// Checkpointer: persists metadata while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ops/100; i++ {
			if err := db.Checkpoint(); err != nil {
				fail("checkpointer: %v", err)
				return
			}
		}
	}()

	// Auditor: stats snapshots and full validation interleaved.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ops/100; i++ {
			_ = db.Stats()
			if err := db.Validate(); err != nil {
				fail("auditor: Validate: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRaceIteratorSnapshot verifies snapshot isolation under churn: every
// iterator must observe exactly the keys below the fence that existed when
// it was created, while writers drive merges with keys above the fence.
// Any metadata or block reuse leaking across a snapshot boundary shows up
// here as a missing, extra, or reordered key — and the interleavings give
// the race detector the read-path/merge overlap to chew on.
func TestRaceIteratorSnapshot(t *testing.T) {
	db, err := lsmssd.Open(lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "iter.blk"),
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     64,
		BloomBitsPerKey: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Fixed region: even keys in [0, fence), written once, never touched
	// again. Iterators over this region must always see exactly these.
	const fence = uint64(2000)
	for k := uint64(0); k < fence; k += 2 {
		if err := db.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	ops := 4000
	if testing.Short() {
		ops = 600
	}

	// Writers churn above the fence, forcing merges that rewrite the
	// levels holding the fixed region's blocks alongside the new data.
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < ops; i++ {
				k := fence + uint64(rng.Intn(4000))
				if rng.Intn(6) == 0 {
					if err := db.Delete(k); err != nil {
						fail("writer %d: Delete(%d): %v", w, k, err)
						return
					}
				} else if err := db.Put(k, []byte("churn")); err != nil {
					fail("writer %d: Put(%d): %v", w, k, err)
					return
				}
			}
		}()
	}

	// Iterator goroutines: repeatedly walk the fixed region on a fresh
	// snapshot and demand the exact expected sequence.
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				it, err := db.NewIterator(0, fence-1)
				if err != nil {
					fail("iter %d: NewIterator: %v", g, err)
					return
				}
				want := uint64(0)
				for it.Next() {
					if it.Key() != want {
						fail("iter %d round %d: got key %d, want %d", g, round, it.Key(), want)
						it.Close()
						return
					}
					if len(it.Value()) != 1 || it.Value()[0] != byte(want) {
						fail("iter %d round %d: key %d has wrong value %v", g, round, want, it.Value())
						it.Close()
						return
					}
					want += 2
				}
				if err := it.Close(); err != nil {
					fail("iter %d round %d: Close: %v", g, round, err)
					return
				}
				if want != fence {
					fail("iter %d round %d: stopped at %d, want %d keys", g, round, want/2, fence/2)
					return
				}
			}
		}()
	}

	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRaceBackgroundCompaction hammers a small-L0 DB with concurrent
// writers, readers, and iterators while Close fires mid-flight.
// The scheduler goroutine takes the writer lock per step, so every
// interleaving of admission gate, cascade step, snapshot read, and
// shutdown is in play here for the race detector; workers treat ErrClosed
// as the clean end of the run.
func TestRaceBackgroundCompaction(t *testing.T) {
	db, err := lsmssd.Open(lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "bg.blk"),
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
		RecordsPerBlock: 16,
		MemtableBlocks:  3, // stalls from 6 and 12 L0 blocks
		Gamma:           4,
		Delta:           0.2,
		CacheBlocks:     64,
		BloomBitsPerKey: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	const keySpace = 2000
	ops := 3000
	if testing.Short() {
		ops = 400
	}

	var (
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	closed := func(err error) bool { return errors.Is(err, lsmssd.ErrClosed) }

	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + w)))
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keySpace))
				if rng.Intn(5) == 0 {
					if err := db.Delete(k); err != nil {
						if !closed(err) {
							fail("writer %d: Delete(%d): %v", w, k, err)
						}
						return
					}
				} else if err := db.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					if !closed(err) {
						fail("writer %d: Put(%d): %v", w, k, err)
					}
					return
				}
			}
		}()
	}

	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(800 + r)))
			for i := 0; i < ops; i++ {
				if _, _, err := db.Get(uint64(rng.Intn(keySpace))); err != nil {
					if !closed(err) {
						fail("reader %d: Get: %v", r, err)
					}
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(900))
		for i := 0; i < ops/10; i++ {
			lo := uint64(rng.Intn(keySpace))
			it, err := db.NewIterator(lo, lo+100)
			if err != nil {
				if !closed(err) {
					fail("iterator: NewIterator: %v", err)
				}
				return
			}
			prev := uint64(0)
			first := true
			for it.Next() {
				if !first && it.Key() <= prev {
					fail("iterator: keys out of order: %d after %d", it.Key(), prev)
					it.Close()
					return
				}
				prev, first = it.Key(), false
			}
			if err := it.Close(); err != nil && !closed(err) {
				fail("iterator: Close: %v", err)
				return
			}
		}
	}()

	// Closer: fires mid-flight, racing admission gates, in-flight cascade
	// steps, and snapshot readers. Everything after this must drain via
	// ErrClosed without the race detector or scheduler shutdown tripping.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1000))
		spin := 200 + rng.Intn(200)
		for i := 0; i < spin; i++ {
			_ = db.Stats()
		}
		if err := db.Close(); err != nil && !closed(err) {
			fail("closer: %v", err)
		}
	}()

	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
	if err := db.Close(); !closed(err) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}
