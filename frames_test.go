package lsmssd_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmssd"
)

// frameValue is a self-describing value: the key, the version, and filler
// derived from both, so a reader can tell a value that was copied whole
// from one torn by a frame refilled under it.
func frameValue(k, version uint64) []byte {
	v := make([]byte, 48)
	binary.LittleEndian.PutUint64(v, k)
	binary.LittleEndian.PutUint64(v[8:], version)
	for i := 16; i < len(v); i++ {
		v[i] = byte(k*31 + version*7 + uint64(i))
	}
	return v
}

// checkFrameValue reports what is wrong with v as key k's value, or "".
func checkFrameValue(k uint64, v []byte) string {
	if len(v) != 48 {
		return fmt.Sprintf("key %d: %d-byte value", k, len(v))
	}
	if got := binary.LittleEndian.Uint64(v); got != k {
		return fmt.Sprintf("key %d: value names key %d", k, got)
	}
	if want := frameValue(k, binary.LittleEndian.Uint64(v[8:])); !bytes.Equal(v, want) {
		return fmt.Sprintf("key %d: torn value %x", k, v)
	}
	return ""
}

// TestFrameRecyclingUnderConcurrentReaders: with a two-frame cache every
// read that misses refills a frame another reader may have just searched.
// Four readers — Gets, Scans, and iterators that keep every value across
// Next and check them again after Close (which hands the runs' buffers to
// the next iterator) — run while a writer rewrites the keys and drives
// merges. Every value any of them sees must be whole, and an iterator's
// must stay whole: a copy out of a frame made after the cache lock is
// released shows up here as a torn value (and under -race as a data race).
func TestFrameRecyclingUnderConcurrentReaders(t *testing.T) {
	const keys = 2000
	db, err := lsmssd.Open(lsmssd.Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  2,
		CacheBlocks:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < keys; k++ {
		if err := db.Put(k, frameValue(k, 0)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		errMu   sync.Mutex
		errs    []string
		checked atomic.Int64
	)
	fail := func(msg string) {
		errMu.Lock()
		if len(errs) < 5 {
			errs = append(errs, msg)
		}
		errMu.Unlock()
		stop.Store(true)
	}
	check := func(k uint64, v []byte) {
		checked.Add(1)
		if msg := checkFrameValue(k, v); msg != "" {
			fail(msg)
		}
	}
	// iterate walks [lo, hi] keeping every value it is handed, checks the
	// kept ones after each Next and all of them after Close.
	iterate := func(lo, hi uint64) {
		it, err := db.NewIterator(lo, hi)
		if err != nil {
			fail(err.Error())
			return
		}
		var ks []uint64
		var vs [][]byte
		for it.Next() {
			ks, vs = append(ks, it.Key()), append(vs, it.Value())
			check(ks[len(ks)-1], vs[len(vs)-1])
			if n := len(ks); n > 1 {
				check(ks[n-2], vs[n-2])
			}
		}
		if err := it.Close(); err != nil {
			fail(err.Error())
		}
		for i := range ks {
			check(ks[i], vs[i])
		}
	}
	readers := []func(r *rand.Rand){
		func(r *rand.Rand) { // point reads
			k := uint64(r.Intn(keys))
			v, ok, err := db.Get(k)
			if err != nil || !ok {
				fail(fmt.Sprintf("Get(%d) = %v, %v", k, ok, err))
				return
			}
			check(k, v)
		},
		func(r *rand.Rand) { // scans: a value is the callback's while it runs
			lo := uint64(r.Intn(keys - 64))
			if err := db.Scan(lo, lo+63, func(k uint64, v []byte) bool {
				check(k, v)
				return true
			}); err != nil {
				fail(err.Error())
			}
		},
		func(r *rand.Rand) { // iterators holding values across Next
			lo := uint64(r.Intn(keys - 128))
			iterate(lo, lo+127)
		},
		func(r *rand.Rand) { // both
			if r.Intn(2) == 0 {
				k := uint64(r.Intn(keys))
				if v, ok, err := db.Get(k); err != nil || !ok {
					fail(fmt.Sprintf("Get(%d) = %v, %v", k, ok, err))
				} else {
					check(k, v)
				}
				return
			}
			lo := uint64(r.Intn(keys - 32))
			iterate(lo, lo+31)
		},
	}
	for i, read := range readers {
		wg.Add(1)
		go func(seed int64, read func(*rand.Rand)) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				read(r)
			}
		}(int64(i), read)
	}
	w := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(400 * time.Millisecond)
	for version := uint64(1); time.Now().Before(deadline) && !stop.Load(); version++ {
		k := uint64(w.Intn(keys))
		if err := db.Put(k, frameValue(k, version)); err != nil {
			fail(err.Error())
		}
	}
	stop.Store(true)
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("readers saw bad values: %v", errs)
	}
	st := db.Stats()
	if checked.Load() == 0 || st.Counters.CacheMisses == 0 || st.Counters.CacheHits == 0 {
		t.Fatalf("the readers never exercised the frames: %d values, %d hits, %d misses",
			checked.Load(), st.Counters.CacheHits, st.Counters.CacheMisses)
	}
}

// TestGetFromLevelAllocatesOnlyItsValue: a Get answered from a storage
// level searches the cached frame (or the pooled read buffer on a miss)
// in place and allocates exactly one thing, the copy of its value —
// whether the cache hits or misses. (A miss reads through pooled buffers,
// which the race detector's sync.Pool drops now and then, so under -race
// only the hit is pinned.)
func TestGetFromLevelAllocatesOnlyItsValue(t *testing.T) {
	db, err := lsmssd.Open(lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "db.blk"),
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		CacheBlocks:     2,
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 2000; k++ {
		if err := db.Put(k, frameValue(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	// Ascending puts leave only the newest keys in L0: keys below 1000
	// live in the levels, 16 to a block.
	get := func(k uint64) {
		v, ok, err := db.Get(k)
		if err != nil || !ok || checkFrameValue(k, v) != "" {
			t.Fatalf("Get(%d) = %x, %v, %v", k, v, ok, err)
		}
	}
	hits := testing.AllocsPerRun(200, func() { get(5) })
	i := uint64(0)
	misses := testing.AllocsPerRun(200, func() {
		i++
		get(i * 48 % 1000) // a different block each time: the two frames miss
	})
	if hits != 1 || (misses != 1 && !raceEnabled) {
		t.Fatalf("a Get from a storage level allocates %.2f times on a hit and %.2f on a miss, want 1", hits, misses)
	}
	st := db.Stats()
	if st.Counters.CacheHits == 0 || st.Counters.CacheMisses < 150 {
		t.Fatalf("the Gets did not hit and miss as planned: %d hits, %d misses", st.Counters.CacheHits, st.Counters.CacheMisses)
	}
}

// TestReopenStoreWrittenBeforeEncodedBlocks opens a store written by the
// engine at commit af0b0ea, whose blocks were decoded into record slices,
// and reads every key back: the block format, the slot layout and the
// manifest are unchanged, so the store needs no conversion. The fixture is
// that commit's output for these options after
//
//	for i := 0; i < 1500; i++ { k := i * 7919 % 10007; Put(k, "value-k") }
//	for k := 0; k < 10007; k += 97 { Delete(k) }
//	Close()
//
// with the closed store's write-ahead log left out (a closed store's
// manifest covers every frame).
func TestReopenStoreWrittenBeforeEncodedBlocks(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"store.blk", "store.blk.manifest"} {
		b, err := os.ReadFile(filepath.Join("testdata", "store-af0b0ea", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := lsmssd.Options{
		Path:            filepath.Join(dir, "store.blk"),
		BlockSize:       512,
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		BloomBitsPerKey: 10,
		Paranoid:        true,
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
	}
	want := map[uint64]string{}
	for i := uint64(0); i < 1500; i++ {
		if k := i * 7919 % 10007; k%97 != 0 {
			want[k] = fmt.Sprintf("value-%d", k)
		}
	}
	verify := func(db *lsmssd.DB) {
		t.Helper()
		for k := uint64(0); k < 10007; k++ {
			v, ok, err := db.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if w, stored := want[k]; ok != stored || (ok && string(v) != w) {
				t.Fatalf("Get(%d) = %q, %v; want %q, %v", k, v, ok, w, stored)
			}
		}
		n := 0
		if err := db.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
			n++
			return string(v) == want[k]
		}); err != nil || n != len(want) {
			t.Fatalf("Scan read %d of %d keys, err %v", n, len(want), err)
		}
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if h := db.Stats().Height; h < 3 {
		t.Fatalf("the fixture reopened with height %d: no storage levels below L1", h)
	}
	verify(db)
	// Blocks written now sit beside the old ones and survive a reopen.
	for k := uint64(10007); k < 10407; k++ {
		want[k] = fmt.Sprintf("value-%d", k)
		if err := db.Put(k, []byte(want[k])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = lsmssd.Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	verify(db)
}
