package lsmssd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lsmssd"
	"lsmssd/internal/wal"
)

// logOpts is a small file-backed store with the log on and segments small
// enough that a test's writes seal many of them.
func logOpts(dir string, shards int, sync lsmssd.SyncPolicy) lsmssd.Options {
	return lsmssd.Options{
		Path:            filepath.Join(dir, "store.db"),
		Shards:          shards,
		MemtableBlocks:  2,
		RecordsPerBlock: 16,
		WAL:             lsmssd.WALOptions{Sync: sync, SegmentBytes: 4 << 10},
	}
}

// TestCrossShardApplyIsAtomic: on a 4-shard store, concurrent Applies of
// batches that span every shard are all-or-nothing for concurrent
// iterators, and across a power cut under each sync policy — with
// checkpoints running meanwhile, so the shards' manifests cover different
// log prefixes when the power goes. Batch w.j writes key 4·(w·perWriter+j)+s
// on shard s, so a batch's keys are contiguous and unique to it.
func TestCrossShardApplyIsAtomic(t *testing.T) {
	const shards, writers, perWriter = 4, 3, 60
	for _, policy := range []lsmssd.SyncPolicy{lsmssd.SyncEvery, lsmssd.SyncInterval, lsmssd.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := logOpts(t.TempDir(), shards, policy)
			db, err := lsmssd.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			value := func(batch uint64) []byte { return []byte(fmt.Sprintf("batch-%05d", batch)) }

			var wg sync.WaitGroup
			var done atomic.Bool
			errc := make(chan error, writers+2)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					b := db.NewBatch()
					for j := 0; j < perWriter; j++ {
						batch := uint64(w*perWriter + j)
						b.Reset()
						for s := uint64(0); s < shards; s++ {
							b.Put(batch*shards+s, value(batch))
						}
						if err := db.Apply(b); err != nil {
							errc <- fmt.Errorf("apply batch %d: %w", batch, err)
							return
						}
					}
				}(w)
			}
			var readers sync.WaitGroup
			readers.Add(2)
			go func() { // iterators: every batch seen is seen whole
				defer readers.Done()
				for !done.Load() {
					if err := checkBatches(db, shards, value, 0); err != nil {
						errc <- fmt.Errorf("iterator: %w", err)
						return
					}
				}
			}()
			go func() { // checkpoints: shards' manifests cover different prefixes
				defer readers.Done()
				for !done.Load() {
					if err := db.Checkpoint(); err != nil {
						errc <- fmt.Errorf("checkpoint: %w", err)
						return
					}
				}
			}()
			wg.Wait()
			done.Store(true)
			readers.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if err := db.Crash(); err != nil {
				t.Fatal(err)
			}

			db, err = lsmssd.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			all := 0
			if policy == lsmssd.SyncEvery {
				all = writers * perWriter
			}
			if err := checkBatches(db, shards, value, all); err != nil {
				t.Fatalf("after a power cut: %v", err)
			}
		})
	}
}

// TestBatchAtomicToConcurrentReaders: a writer applies batches that set
// keys 0..63 to one version each, and concurrent Scans and iterators over
// [0, 63] must see all 64 keys at one version. On one shard nothing but
// the tree's L0 mutex keeps a reader's capture out of the middle of a
// batch; on four, pubMu keeps iterators between two batches' shards. L0
// holds 16 records, so merge installs race the captures throughout.
func TestBatchAtomicToConcurrentReaders(t *testing.T) {
	const keys, batches = 64, 300
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) {
			opts := smallOptions()
			opts.Shards = shards
			db, err := lsmssd.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			b := db.NewBatch()
			apply := func(version int) error {
				b.Reset()
				v := []byte(fmt.Sprint(version))
				for k := uint64(0); k < keys; k++ {
					b.Put(k, v)
				}
				return db.Apply(b)
			}
			if err := apply(0); err != nil {
				t.Fatal(err)
			}
			// whole reads [0, keys) through each and fails unless it yields
			// every key in order, all at one version.
			whole := func(each func(fn func(k uint64, v []byte)) error) error {
				var n uint64
				var first string
				var bad error
				err := each(func(k uint64, v []byte) {
					switch {
					case bad != nil:
					case k != n:
						bad = fmt.Errorf("key %d where %d was due", k, n)
					case n == 0:
						first = string(v)
					case string(v) != first:
						bad = fmt.Errorf("key 0 at version %s, key %d at version %s", first, k, v)
					}
					n++
				})
				if err != nil {
					return err
				}
				if bad == nil && n != keys {
					bad = fmt.Errorf("%d keys, want %d", n, keys)
				}
				return bad
			}
			scan := func(fn func(k uint64, v []byte)) error {
				return db.Scan(0, keys-1, func(k uint64, v []byte) bool {
					fn(k, v)
					return true
				})
			}
			iterate := func(fn func(k uint64, v []byte)) error {
				it, err := db.NewIterator(0, keys-1)
				if err != nil {
					return err
				}
				for it.Next() {
					fn(it.Key(), it.Value())
				}
				return it.Close()
			}
			var done atomic.Bool
			var reads atomic.Int64
			var readers sync.WaitGroup
			errc := make(chan error, 2)
			for name, each := range map[string]func(func(uint64, []byte)) error{"Scan": scan, "iterator": iterate} {
				readers.Add(1)
				go func(name string, each func(func(uint64, []byte)) error) {
					defer readers.Done()
					for !done.Load() {
						if err := whole(each); err != nil {
							errc <- fmt.Errorf("%s: %w", name, err)
							return
						}
						reads.Add(1)
					}
				}(name, each)
			}
			for v := 1; v <= batches; v++ {
				if err := apply(v); err != nil {
					t.Error(err)
					break
				}
			}
			done.Store(true)
			readers.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			t.Logf("%d reads", reads.Load())
		})
	}
}

// checkBatches scans db and fails unless every batch it holds is whole:
// all shards keys of it, each with the batch's value. With all > 0, that
// many batches — every one the test wrote — must be there.
func checkBatches(db *lsmssd.DB, shards uint64, value func(uint64) []byte, all int) error {
	seen := map[uint64]uint64{}
	err := db.Scan(0, ^uint64(0), func(key uint64, v []byte) bool {
		seen[key/shards]++
		if want := value(key / shards); string(v) != string(want) {
			seen[key/shards] = 1 << 32 // wrong value: never whole
		}
		return true
	})
	if err != nil {
		return err
	}
	for batch, n := range seen {
		if n != shards {
			return fmt.Errorf("batch %d: %d of its %d keys visible", batch, n, shards)
		}
	}
	if all > 0 && len(seen) != all {
		return fmt.Errorf("%d whole batches, want every acknowledged one (%d)", len(seen), all)
	}
	return nil
}

// TestIdleShardDoesNotPinLog: on a 2-shard store whose shard 1 wrote a
// little and then went idle while shard 0 sealed segment after segment,
// the log stays a bounded number of segments (shard 1 is asked to
// checkpoint once its frames fall behind), and a power cut after that GC
// recovers both shards.
func TestIdleShardDoesNotPinLog(t *testing.T) {
	opts := logOpts(t.TempDir(), 2, lsmssd.SyncEvery)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	put := func(key uint64) {
		t.Helper()
		v := fmt.Sprintf("v%d", key)
		if err := db.Put(key, []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[key] = v
	}
	for key := uint64(1); key < 40; key += 2 { // shard 1
		put(key)
	}
	maxSegs := 0
	for key := uint64(0); key < 6000; key += 2 { // shard 0 only
		put(key)
		if key%200 == 0 {
			if err := lsmssd.DrainCompaction(db); err != nil {
				t.Fatal(err)
			}
			maxSegs = max(maxSegs, db.Stats().WAL.Segments)
		}
	}
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.WAL.Rotations < 20 {
		t.Fatalf("only %d rotations; the test needs many", st.WAL.Rotations)
	}
	// Shards+1 segments, plus the one a rotation seals before the
	// checkpoint it asks for has collected it.
	if maxSegs > 4 {
		t.Fatalf("log held up to %d segments over %d rotations; an idle shard pins it", maxSegs, st.WAL.Rotations)
	}
	if st.Shards[1].Checkpoints == 0 {
		t.Fatal("idle shard 1 was never asked to checkpoint")
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for key, v := range want {
		got, ok, err := db.Get(key)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%d) after crash = %q, %v, %v; want %q", key, got, ok, err, v)
		}
	}
}

// TestOpenRefusesPerShardLogs: a store that still has a per-shard log
// segment, left by a version that gave every shard its own log, is
// refused with an error naming the file rather than opened without its
// frames.
func TestOpenRefusesPerShardLogs(t *testing.T) {
	opts := logOpts(t.TempDir(), 2, lsmssd.SyncEvery)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := wal.SegmentFiles(opts.Path + ".wal"); len(segs) == 0 {
		t.Fatal("no segment of the DB's log on disk")
	}
	stale := opts.Path + ".shard1.wal.00000003"
	if err := os.WriteFile(stale, []byte("LSMW"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lsmssd.Open(opts); err == nil || !strings.Contains(err.Error(), stale) {
		t.Fatalf("Open over a per-shard log = %v, want an error naming %s", err, stale)
	}
	if err := os.Remove(stale); err != nil {
		t.Fatal(err)
	}
	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if v, ok, err := db.Get(1); err != nil || !ok || string(v) != "x" {
		t.Fatalf("Get(1) = %q, %v, %v", v, ok, err)
	}
}
