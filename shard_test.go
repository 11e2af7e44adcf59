package lsmssd_test

// Sharded-engine coverage: routing transparency (the public API behaves
// identically at any shard count), cross-shard iterator ordering,
// snapshot isolation under concurrent writers, batch/DB binding,
// shard-count persistence, and the Shards=1 compatibility
// guarantee (same write cost and same on-device bytes as the default
// single-tree configuration).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lsmssd"
	"lsmssd/internal/crashloop"
)

// shardOpts is smallOpts spread over n trees.
func shardOpts(n int) lsmssd.Options {
	o := smallOpts()
	o.Shards = n
	return o
}

// TestShardedCrossShardIteratorOrder drives keys into every shard and
// checks that the merging iterator returns one globally sorted stream:
// ascending keys, correct values, deletes honored, bounds respected.
func TestShardedCrossShardIteratorOrder(t *testing.T) {
	db, err := lsmssd.Open(shardOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k += 7 {
		if err := db.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	var want []uint64
	for k := uint64(300); k <= 1699; k++ {
		if k%7 != 0 {
			want = append(want, k)
		}
	}

	it, err := db.NewIterator(300, 1699)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Next() {
		if i >= len(want) {
			t.Fatalf("iterator returned extra key %d past the %d expected", it.Key(), len(want))
		}
		if it.Key() != want[i] {
			t.Fatalf("position %d: got key %d, want %d (cross-shard merge out of order)", i, it.Key(), want[i])
		}
		if got := string(it.Value()); got != fmt.Sprintf("v%d", want[i]) {
			t.Fatalf("key %d: value %q", want[i], got)
		}
		i++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("iterator returned %d keys, want %d", i, len(want))
	}

	// Scan is the same merge; it must agree exactly.
	j := 0
	if err := db.Scan(300, 1699, func(k uint64, v []byte) bool {
		if j >= len(want) || k != want[j] {
			t.Fatalf("Scan position %d: got key %d", j, k)
		}
		j++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if j != len(want) {
		t.Fatalf("Scan returned %d keys, want %d", j, len(want))
	}
}

// TestShardedSnapshotIsolation pins a cross-shard iterator's snapshot,
// then hammers every shard from concurrent writers; the iterator must
// still see exactly the pre-snapshot contents. Run under -race this also
// proves the router's lock structure keeps per-shard writers and the
// merging reader apart.
func TestShardedSnapshotIsolation(t *testing.T) {
	db, err := lsmssd.Open(shardOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const n = 600
	for k := uint64(0); k < n; k += 2 {
		if err := db.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	it, err := db.NewIterator(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := uint64(g); k < n; k += 4 {
					if err := db.Put(k, []byte("new")); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}

	seen := 0
	for it.Next() {
		if it.Key()%2 != 0 {
			t.Fatalf("snapshot leaked key %d written after NewIterator", it.Key())
		}
		if !bytes.Equal(it.Value(), []byte("old")) {
			t.Fatalf("key %d: snapshot sees later value %q", it.Key(), it.Value())
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != n/2 {
		t.Fatalf("snapshot iterator saw %d keys, want %d", seen, n/2)
	}
	wg.Wait()

	// The live state has every key at "new".
	for k := uint64(1); k < n; k += 97 {
		v, ok, err := db.Get(k)
		if err != nil || !ok || !bytes.Equal(v, []byte("new")) {
			t.Fatalf("live Get(%d) = %q, %v, %v", k, v, ok, err)
		}
	}
}

// TestBatchBoundToDB: a batch created by one DB partitions for that DB's
// shard count and must be rejected by any other DB; an unbound zero-value
// batch works anywhere.
func TestBatchBoundToDB(t *testing.T) {
	db1, err := lsmssd.Open(shardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	db2, err := lsmssd.Open(shardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	b := db1.NewBatch()
	for k := uint64(0); k < 100; k++ {
		b.Put(k, []byte(fmt.Sprintf("b%d", k)))
	}
	if err := db2.Apply(b); !errors.Is(err, lsmssd.ErrBatchDB) {
		t.Fatalf("Apply on the wrong DB = %v, want ErrBatchDB", err)
	}
	if err := db1.Apply(b); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k += 13 {
		v, ok, err := db1.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("b%d", k) {
			t.Fatalf("Get(%d) = %q, %v, %v", k, v, ok, err)
		}
	}

	// A zero-value batch binds lazily on first Apply, re-partitioning its
	// staged ops for whatever shard count it lands on.
	var zb lsmssd.WriteBatch
	for k := uint64(200); k < 300; k++ {
		zb.Put(k, []byte("z"))
	}
	if err := db1.Apply(&zb); err != nil {
		t.Fatal(err)
	}
	for k := uint64(200); k < 300; k += 17 {
		v, ok, err := db1.Get(k)
		if err != nil || !ok || string(v) != "z" {
			t.Fatalf("Get(%d) after zero-value batch = %q, %v, %v", k, v, ok, err)
		}
	}
	// ...and is then bound: the other DB rejects it.
	zb.Reset()
	zb.Put(1, nil)
	if err := db2.Apply(&zb); !errors.Is(err, lsmssd.ErrBatchDB) {
		t.Fatalf("re-used zero-value batch on other DB = %v, want ErrBatchDB", err)
	}
}

// TestShardCountPersisted: the manifest records the shard count, and a
// reopen with a different Options.Shards is refused with an error that
// says what the store was created with.
func TestShardCountPersisted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.blk")
	opts := shardOpts(2)
	opts.Path = path
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k++ {
		if err := db.Put(k, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	wrong := shardOpts(4)
	wrong.Path = path
	if _, err := lsmssd.Open(wrong); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("reopen with Shards=4 of a 2-shard store = %v, want shard-count error", err)
	}

	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 300; k += 41 {
		if _, ok, err := db.Get(k); err != nil || !ok {
			t.Fatalf("after correct reopen Get(%d) = %v, %v", k, ok, err)
		}
	}
}

// TestShardsOneMatchesDefault is the compatibility gate: Shards=1 must be
// the same engine as the pre-sharding default — same BlocksWritten, same
// bytes on the device file, no extra shard files. Both drain compaction
// after every write, so their merge sequences are deterministic.
func TestShardsOneMatchesDefault(t *testing.T) {
	run := func(dir string, shards int) int64 {
		o := fileOpts(filepath.Join(dir, "store.blk"))
		o.Shards = shards // 0 and 1 must behave identically
		db, err := lsmssd.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 2000; k++ {
			if err := db.Put(k*2654435761%4096, []byte(fmt.Sprintf("v%d", k))); err != nil {
				t.Fatal(err)
			}
			if err := lsmssd.DrainCompaction(db); err != nil {
				t.Fatal(err)
			}
		}
		w := db.Stats().BlocksWritten
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	dirDefault, dirOne := t.TempDir(), t.TempDir()
	wDefault := run(dirDefault, 0)
	wOne := run(dirOne, 1)
	if wDefault != wOne {
		t.Fatalf("BlocksWritten diverged: default %d, Shards=1 %d", wDefault, wOne)
	}

	bDefault, err := os.ReadFile(filepath.Join(dirDefault, "store.blk"))
	if err != nil {
		t.Fatal(err)
	}
	bOne, err := os.ReadFile(filepath.Join(dirOne, "store.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bDefault, bOne) {
		t.Fatal("device files differ between default and Shards=1")
	}
	if _, err := os.Stat(filepath.Join(dirOne, "store.blk.shard1")); !os.IsNotExist(err) {
		t.Fatalf("Shards=1 store grew a shard file: %v", err)
	}
}

// TestShardedStatsBreakdown: Stats carries one ShardStats per shard whose
// counters sum to the aggregate, and flush events are stamped with the
// shard that produced them.
func TestShardedStatsBreakdown(t *testing.T) {
	db, err := lsmssd.Open(shardOpts(4))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	flushShards := map[int]bool{}
	cancel := db.Subscribe(func(ev lsmssd.Event) {
		if f, ok := ev.(lsmssd.FlushEvent); ok {
			mu.Lock()
			flushShards[f.Shard] = true
			mu.Unlock()
		}
	})
	defer cancel()

	const n = 2000
	for k := uint64(0); k < n; k++ {
		if err := db.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	s := db.Stats()
	if len(s.Shards) != 4 {
		t.Fatalf("Stats.Shards has %d entries, want 4", len(s.Shards))
	}
	var sumW, sumReq int64
	var sumRec int
	for i, sh := range s.Shards {
		if sh.Shard != i {
			t.Fatalf("Shards[%d].Shard = %d", i, sh.Shard)
		}
		if sh.Requests == 0 {
			t.Errorf("shard %d received no requests; router is not spreading keys", i)
		}
		sumW += sh.BlocksWritten
		sumReq += sh.Requests
		sumRec += sh.Records
	}
	if sumW != s.BlocksWritten {
		t.Errorf("per-shard BlocksWritten sum %d != aggregate %d", sumW, s.BlocksWritten)
	}
	if sumReq != s.Requests || s.Requests != n {
		t.Errorf("requests: per-shard sum %d, aggregate %d, want %d", sumReq, s.Requests, n)
	}
	if sumRec != s.Records || s.Records != n {
		t.Errorf("records: per-shard sum %d, aggregate %d, want %d", sumRec, s.Records, n)
	}

	// Close drains the bus, so after it every flush so far is delivered.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(flushShards) < 2 {
		t.Errorf("flush events came from %d shard(s), want several: %v", len(flushShards), flushShards)
	}
}

// TestCrashLoopSharded is the sharded durability gate: at least 50
// randomized power cuts against a 4-shard store under SyncEvery, every
// recovery restoring each shard's acked frames exactly.
func TestCrashLoopSharded(t *testing.T) {
	report, err := crashloop.Run(crashloop.Config{
		Dir:       t.TempDir(),
		Iters:     55,
		MaxOps:    60,
		Seed:      7,
		KeySpace:  256,
		Shards:    4,
		Sync:      lsmssd.SyncEvery,
		CrashProb: 1.0,
		TornTail:  true,
	})
	t.Log(report)
	if err != nil {
		t.Fatal(err)
	}
	if report.Crashes < 50 {
		t.Fatalf("only %d power cuts exercised, want at least 50", report.Crashes)
	}
	if report.LostFrames != 0 {
		t.Fatalf("SyncEvery lost %d acked frames across shards", report.LostFrames)
	}
	if report.Recoveries == 0 {
		t.Error("no recovery ever replayed frames")
	}
}
