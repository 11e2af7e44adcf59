package lsmssd

import (
	"fmt"
	"testing"
	"time"
)

// TestMergeStepsTakeNoWriterLock: merge steps, scrub repairs and ForceGrow
// change the storage levels under the merge lock alone. With every shard's
// writer lock held, as writers and checkpoint captures hold them, a queued
// cascade drains, a corrupt block is repaired, the tree grows, and Gets see
// each result.
func TestMergeStepsTakeNoWriterLock(t *testing.T) {
	db, fd := openWithFault(t, Options{MemtableBlocks: 2, RecordsPerBlock: 16})
	s := db.shards[0]
	healthWorkload(t, db, 200)

	// Queue a cascade the scheduler cannot start until the writer locks
	// are held: L0 fires at K0·B = 32 records.
	s.mergeMu.Lock()
	for k := 200; k < 240; k++ {
		if err := db.Put(uint64(k), []byte(fmt.Sprintf("value-%04d", k))); err != nil {
			s.mergeMu.Unlock()
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	queued := s.sched.Snapshot().QueueDepth
	lockShards(db.shards)
	s.mergeMu.Unlock()
	defer unlockShards(db.shards)
	if queued == 0 {
		t.Fatal("no merge work queued after 40 puts with the merge lock held")
	}

	withoutWriterLock := func(what string, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s did not finish within 20s: it waits for a writer lock", what)
		}
	}

	withoutWriterLock("draining the queued cascade", func() error { return DrainCompaction(db) })
	if l0 := db.Stats().Compaction.L0Blocks; l0 >= 2 {
		t.Fatalf("L0 holds %d blocks after the drain, want fewer than K0 = 2", l0)
	}

	id, _ := liveBlock(t, db)
	fd.Corrupt(id)
	withoutWriterLock("a scrub pass", func() error { s.scrubPass(); return nil })
	if got := s.scrubRepaired.Load(); got != 1 {
		t.Fatalf("scrubRepaired = %d, want 1", got)
	}

	height := db.Stats().Height
	withoutWriterLock("ForceGrow", func() error { db.ForceGrow(); return nil })
	if got := db.Stats().Height; got != height+1 {
		t.Fatalf("height %d after ForceGrow, want %d", got, height+1)
	}

	for k := 0; k < 240; k++ {
		v, ok, err := db.Get(uint64(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("value-%04d", k) {
			t.Fatalf("Get(%d) = %q, %v, %v", k, v, ok, err)
		}
	}
}
