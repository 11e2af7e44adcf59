package lsmssd_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lsmssd"
)

// fileOptions returns smallOptions over a file whose log never fsyncs; a
// test of crash durability resets WAL to the zero value, SyncEvery.
func fileOptions(t *testing.T) lsmssd.Options {
	t.Helper()
	opts := smallOptions()
	opts.Path = filepath.Join(t.TempDir(), "db.blk")
	opts.WAL.Sync = lsmssd.SyncNever
	return opts
}

func TestPersistenceRoundTrip(t *testing.T) {
	opts := fileOptions(t)
	model := map[uint64]string{}

	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(800))
		if rng.Intn(4) == 0 {
			db.Delete(k)
			delete(model, k)
		} else {
			v := fmt.Sprint(i)
			db.Put(k, []byte(v))
			model[k] = v
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same options: everything must come back, including
	// records that were still in the memtable at Close.
	db2, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 800; k++ {
		v, ok, err := db2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := model[k]
		if ok != wantOK || (ok && string(v) != want) {
			t.Fatalf("Get(%d) = %q,%v, want %q,%v", k, v, ok, want, wantOK)
		}
	}
	// And it keeps working (allocator state was rebuilt correctly).
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(800))
		if err := db2.Put(k, []byte("post-reopen")); err != nil {
			t.Fatal(err)
		}
		model[k] = "post-reopen"
	}
	if err := db2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointThenCrash(t *testing.T) {
	opts := fileOptions(t)
	opts.WAL = lsmssd.WALOptions{}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k++ {
		db.Put(k, []byte("pre"))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes survive the crash through the log.
	for k := uint64(1000); k < 1100; k++ {
		db.Put(k, []byte("post"))
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db2, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k := uint64(0); k < 300; k++ {
		if _, ok, _ := db2.Get(k); !ok {
			t.Fatalf("checkpointed key %d lost", k)
		}
	}
	for k := uint64(1000); k < 1100; k++ {
		if v, ok, err := db2.Get(k); err != nil || !ok || string(v) != "post" {
			t.Fatalf("post-checkpoint key %d after the crash: %q, found=%v, err=%v", k, v, ok, err)
		}
	}
	if err := db2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenConfigMismatch(t *testing.T) {
	opts := fileOptions(t)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(1, []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.Gamma = 8 // different geometry
	if _, err := lsmssd.Open(bad); err == nil {
		t.Error("reopen with mismatched options succeeded")
	}
	// Policy changes ARE allowed (the paper's whole point): reopen with
	// a different merge policy.
	alt := opts
	alt.MergePolicy = lsmssd.Full
	db2, err := lsmssd.Open(alt)
	if err != nil {
		t.Fatalf("policy change on reopen rejected: %v", err)
	}
	defer db2.Close()
	if v, ok, _ := db2.Get(1); !ok || string(v) != "v" {
		t.Error("data lost across policy change")
	}
}

func TestCorruptManifestRejected(t *testing.T) {
	opts := fileOptions(t)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		db.Put(k, []byte("v"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mpath := opts.Path + ".manifest"
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(mpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lsmssd.Open(opts); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

func TestCheckpointInMemoryNoop(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Errorf("in-memory checkpoint errored: %v", err)
	}
}

func TestPersistenceDeterministicAllocator(t *testing.T) {
	// Freed slots must be recycled after reopen: grow, close, reopen,
	// churn, and confirm the file stays within three times its size after
	// the first phase. The log keeps its default 4 MiB segments, so no
	// rotation checkpoints during the churn: the slots merges free must be
	// reused without one, which holds for every block written since the
	// last checkpoint capture.
	opts := fileOptions(t)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 2000; k++ {
		db.Put(k, []byte("v"))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	info1, _ := os.Stat(opts.Path)

	db2, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(2000))
		if rng.Intn(2) == 0 {
			db2.Put(k, []byte("w"))
		} else {
			db2.Delete(k)
		}
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	info2, _ := os.Stat(opts.Path)
	t.Logf("device file %d -> %d bytes", info1.Size(), info2.Size())
	if info2.Size() > info1.Size()*3 {
		t.Errorf("file grew from %d to %d bytes; allocator not recycling", info1.Size(), info2.Size())
	}
}

func TestBackgroundCloseMidCascade(t *testing.T) {
	// Close can land while the background scheduler is mid-cascade: Stop
	// finishes the in-flight step and abandons the rest. Reopen must
	// complete the interrupted cascade (Restore drains it) and hand back
	// a tree that validates with every record intact.
	opts := fileOptions(t) // 2-block L0: stalls from 4 and 8 blocks

	model := map[uint64]string{}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Burst writes then immediate Close, so the backlog is still draining
	// when shutdown starts.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(600))
		v := fmt.Sprint(i)
		if err := db.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Validate(); err != nil {
		t.Fatalf("reopened tree fails validation after mid-cascade Close: %v", err)
	}
	for k, want := range model {
		v, ok, err := db2.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != want {
			t.Fatalf("Get(%d) after reopen = %q, %v; want %q", k, v, ok, want)
		}
	}
}

// TestDefaultOptionsFileBackedStore is the regression test for the derived
// default block capacity: with nothing but Path set, values of the default
// 100-byte payload size must flush and merge onto a file-backed device (the
// derived B once ignored the 2-byte length prefix Encode writes, so a full
// block overflowed the 4096-byte slot) and come back after a reopen. The
// writes go in batches of 100, one log fsync each.
func TestDefaultOptionsFileBackedStore(t *testing.T) {
	opts := lsmssd.Options{Path: filepath.Join(t.TempDir(), "db.blk")}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	value := func(k uint64) []byte {
		v := make([]byte, 100)
		for i := range v {
			v[i] = byte(k) + byte(i)
		}
		return v
	}
	// Default MemtableBlocks is 256 blocks of 36 records: 30k sequential
	// keys force three full-block flushes into L1.
	const n = 30_000
	b := db.NewBatch()
	for k := uint64(0); k < n; k++ {
		b.Put(k, value(k))
		if b.Len() == 100 {
			if err := db.Apply(b); err != nil {
				t.Fatalf("apply up to %d: %v", k, err)
			}
			b.Reset()
		}
	}
	if st := db.Stats(); st.Merges < 3 {
		t.Fatalf("only %d merges ran; the test must cross several flushes", st.Merges)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k += 97 {
		v, ok, err := db2.Get(k)
		if err != nil || !ok || string(v) != string(value(k)) {
			t.Fatalf("get %d after reopen: ok=%v err=%v", k, ok, err)
		}
	}
}
