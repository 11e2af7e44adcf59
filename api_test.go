package lsmssd_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"lsmssd"
)

// smallOpts keeps levels tiny so a few hundred records exercise merges.
func smallOpts() lsmssd.Options {
	return lsmssd.Options{
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.2,
		Paranoid:        true,
	}
}

func TestIteratorBasic(t *testing.T) {
	db, err := lsmssd.Open(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 500; k++ {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 500; k += 5 {
		if err := db.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	it, err := db.NewIterator(100, 199)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	want := uint64(100)
	for it.Next() {
		for want%5 == 0 {
			want++ // deleted
		}
		if it.Key() != want {
			t.Fatalf("got key %d, want %d", it.Key(), want)
		}
		if got := string(it.Value()); got != fmt.Sprintf("v%d", want) {
			t.Fatalf("key %d: value %q", want, got)
		}
		want++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if want != 200 {
		t.Fatalf("iteration stopped at %d", want)
	}
}

// TestIteratorFrozenAcrossWrites pins an iterator's snapshot, then rewrites
// every key and drives merges; the iterator must still return the original
// contents.
func TestIteratorFrozenAcrossWrites(t *testing.T) {
	db, err := lsmssd.Open(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 300; k += 2 {
		if err := db.Put(k, []byte("old")); err != nil {
			t.Fatal(err)
		}
	}

	it, err := db.NewIterator(0, 299)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Overwrite everything and add the odd keys, forcing several merges
	// past the snapshot.
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 300; k++ {
			if err := db.Put(k, []byte("new")); err != nil {
				t.Fatal(err)
			}
		}
	}

	n := 0
	for it.Next() {
		if it.Key()%2 != 0 {
			t.Fatalf("snapshot leaked key %d written after NewIterator", it.Key())
		}
		if !bytes.Equal(it.Value(), []byte("old")) {
			t.Fatalf("key %d: snapshot sees later value %q", it.Key(), it.Value())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("snapshot iterator saw %d keys, want 150", n)
	}
	// A fresh read sees the new state.
	v, ok, err := db.Get(1)
	if err != nil || !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("live Get(1) = %q, %v, %v", v, ok, err)
	}
}

func TestWriteBatchRoundTrip(t *testing.T) {
	db, err := lsmssd.Open(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	before := db.Stats()
	b := db.NewBatch()
	for k := uint64(0); k < 400; k++ {
		b.Put(k, []byte(fmt.Sprintf("b%d", k)))
	}
	b.Delete(7)
	b.Put(8, []byte("final")) // later op on same key wins
	if b.Len() != 402 {
		t.Fatalf("Len = %d, want 402", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}

	if _, ok, _ := db.Get(7); ok {
		t.Error("key 7 deleted in batch but still present")
	}
	if v, ok, _ := db.Get(8); !ok || string(v) != "final" {
		t.Errorf("key 8 = %q, %v; want later batch op to win", v, ok)
	}
	for k := uint64(9); k < 400; k += 37 {
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("b%d", k) {
			t.Fatalf("Get(%d) = %q, %v, %v", k, v, ok, err)
		}
	}

	s := db.Stats()
	if got := s.Requests - before.Requests; got != 402 {
		t.Errorf("batch counted %d requests, want 402 (one per op)", got)
	}
	if got := s.Deletes - before.Deletes; got != 1 {
		t.Errorf("batch counted %d deletes, want 1", got)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}

	// Reset empties the batch for reuse.
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	if err := db.Apply(b); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestBatchMatchesSequential checks that a batched workload leaves the
// same store contents and the same write cost as the identical sequence of
// individual requests — batching changes locking, not merge behaviour.
func TestBatchMatchesSequential(t *testing.T) {
	run := func(batched bool) (int64, map[uint64]string) {
		opts := smallOpts()
		opts.Paranoid = false
		db, err := lsmssd.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		const n = 1000
		if batched {
			b := db.NewBatch()
			for k := uint64(0); k < n; k++ {
				b.Put(k*3%n, []byte(fmt.Sprintf("v%d", k)))
				if k%10 == 9 {
					if err := db.Apply(b); err != nil {
						t.Fatal(err)
					}
					b.Reset()
				}
			}
			if err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
		} else {
			for k := uint64(0); k < n; k++ {
				if err := db.Put(k*3%n, []byte(fmt.Sprintf("v%d", k))); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := map[uint64]string{}
		if err := db.Scan(0, n, func(k uint64, v []byte) bool {
			got[k] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return db.Stats().BlocksWritten, got
	}

	seqW, seqM := run(false)
	batW, batM := run(true)
	if len(seqM) != len(batM) {
		t.Fatalf("batched run has %d keys, sequential %d", len(batM), len(seqM))
	}
	for k, v := range seqM {
		if batM[k] != v {
			t.Fatalf("key %d: batched %q, sequential %q", k, batM[k], v)
		}
	}
	// Batched L0 fills can cross the overflow threshold before the cascade
	// runs, so write counts may differ slightly — but not wildly.
	if batW > seqW*2 || seqW > batW*2 {
		t.Errorf("write cost diverged: batched %d vs sequential %d", batW, seqW)
	}
}

func TestErrClosed(t *testing.T) {
	db, err := lsmssd.Open(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := db.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	it, err := db.NewIterator(0, 99) // in-flight before Close
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() {
		t.Fatal("iterator empty before Close")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if err := db.Put(1, nil); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Put after Close: %v", err)
	}
	if err := db.Delete(1); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Delete after Close: %v", err)
	}
	if _, _, err := db.Get(1); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Get after Close: %v", err)
	}
	if err := db.Scan(0, 10, func(uint64, []byte) bool { return true }); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Scan after Close: %v", err)
	}
	if _, err := db.NewIterator(0, 10); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("NewIterator after Close: %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Checkpoint after Close: %v", err)
	}
	if err := db.Apply(db.NewBatch()); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Apply after Close: %v", err)
	}
	if err := db.Validate(); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("Validate after Close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("second Close: %v", err)
	}
	// The in-flight iterator fails deterministically rather than crashing.
	if it.Next() {
		t.Error("iterator advanced past Close")
	}
	if err := it.Err(); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("iterator Err after Close: %v", err)
	}
	if err := it.Close(); !errors.Is(err, lsmssd.ErrClosed) {
		t.Errorf("iterator Close after DB Close: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*lsmssd.Options)
		field string
	}{
		{"epsilon negative", func(o *lsmssd.Options) { o.Epsilon = -0.1 }, "Epsilon"},
		{"epsilon one", func(o *lsmssd.Options) { o.Epsilon = 1 }, "Epsilon"},
		{"epsilon above one", func(o *lsmssd.Options) { o.Epsilon = 1.5 }, "Epsilon"},
		{"epsilon above one half", func(o *lsmssd.Options) { o.Epsilon = 0.6 }, "Epsilon"},
		{"memtableblocks negative", func(o *lsmssd.Options) { o.MemtableBlocks = -1 }, "MemtableBlocks"},
		{"recordsperblock negative", func(o *lsmssd.Options) { o.RecordsPerBlock = -1 }, "RecordsPerBlock"},
		{"delta negative", func(o *lsmssd.Options) { o.Delta = -0.2 }, "Delta"},
		{"delta above one", func(o *lsmssd.Options) { o.Delta = 1.01 }, "Delta"},
		{"gamma one", func(o *lsmssd.Options) { o.Gamma = 1 }, "Gamma"},
		{"gamma negative", func(o *lsmssd.Options) { o.Gamma = -3 }, "Gamma"},
		{"blocksize negative", func(o *lsmssd.Options) { o.BlockSize = -4096 }, "BlockSize"},
		// +Inf used to panic in the first block write's filter allocation;
		// NaN silently turned filters off.
		{"bloom bits +Inf", func(o *lsmssd.Options) { o.BloomBitsPerKey = math.Inf(1) }, "BloomBitsPerKey"},
		{"bloom bits -Inf", func(o *lsmssd.Options) { o.BloomBitsPerKey = math.Inf(-1) }, "BloomBitsPerKey"},
		{"bloom bits NaN", func(o *lsmssd.Options) { o.BloomBitsPerKey = math.NaN() }, "BloomBitsPerKey"},
		{"bloom bits above 64", func(o *lsmssd.Options) { o.BloomBitsPerKey = 64.5 }, "BloomBitsPerKey"},
		// 64 < 4-byte header + one encoded 100-byte-value record (115): the
		// derived B floors at 1 and the first flush could not be stored.
		{"blocksize below one default record, file-backed", func(o *lsmssd.Options) { o.Path, o.BlockSize = "unused.blk", 64 }, "BlockSize 64"},
		{"blocksize one byte short, file-backed", func(o *lsmssd.Options) { o.Path, o.BlockSize = "unused.blk", 114 }, "at least 115"},
		// The WAL fields are checked whether or not the store has a Path.
		{"wal sync unknown", func(o *lsmssd.Options) { o.WAL.Sync = 7 }, "WAL.Sync"},
		{"wal interval negative", func(o *lsmssd.Options) { o.WAL.Interval = -time.Second }, "WAL.Interval"},
		{"wal segment too small", func(o *lsmssd.Options) { o.WAL.SegmentBytes = 1024 }, "WAL.SegmentBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o lsmssd.Options
			tc.mut(&o)
			err := o.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid options")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %s", err, tc.field)
			}
			if _, err := lsmssd.Open(o); err == nil {
				t.Error("Open accepted invalid options")
			}
		})
	}
	// Zero value means defaults and is valid.
	if err := (lsmssd.Options{}).Validate(); err != nil {
		t.Errorf("zero Options invalid: %v", err)
	}
	if err := (lsmssd.Options{Epsilon: 0.5}).Validate(); err != nil {
		t.Errorf("ε = 0.5, the largest the tree accepts, rejected: %v", err)
	}
	for _, b := range []float64{-3, 64} { // negative means off; 64 is the cap
		if err := (lsmssd.Options{BloomBitsPerKey: b}).Validate(); err != nil {
			t.Errorf("BloomBitsPerKey %g rejected: %v", b, err)
		}
	}
	// The small-block rule is about the derived B of a file-backed store only.
	for _, o := range []lsmssd.Options{
		{Path: "unused.blk", BlockSize: 115},
		{Path: "unused.blk", BlockSize: 64, RecordsPerBlock: 2},
		{BlockSize: 64},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", o, err)
		}
	}
}
