package lsmssd

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// DrainCompaction waits until every shard of db except those listed in
// skip has no merge step and no checkpoint outstanding — its scheduler's
// QueueDepth is zero — and returns an error if one is still busy after 20
// seconds. Skip a shard whose scheduler has parked an error: its queue
// never empties.
//
// Called after every write it reproduces the paper's inline merge
// sequence: the scheduler goroutine runs exactly the steps an inline
// cascade would, in the same order, before the next write is admitted, so
// BlocksWritten is a pure function of the options and the writes. It is
// exported from a test file so the external test package can call it.
func DrainCompaction(db *DB, skip ...int) error {
	deadline := time.Now().Add(20 * time.Second)
	for _, s := range db.shards {
		if slices.Contains(skip, s.id) {
			continue
		}
		// Yield before sleeping: a drain after every write must not cost a
		// timer tick per write.
		for i := 0; s.sched.Snapshot().QueueDepth != 0; i++ {
			if i < 256 {
				runtime.Gosched()
				continue
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d: compaction queue still %d deep after 20s", s.id, s.sched.Snapshot().QueueDepth)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}
