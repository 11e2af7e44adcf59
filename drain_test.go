package lsmssd

import (
	"fmt"
	"slices"
	"time"
)

// DrainCompaction waits until every shard of db except those listed in
// skip has no merge step outstanding — its scheduler is idle — and then
// until no shard is owed a checkpoint (due, or running on the
// checkpointer), and returns the error a shard's scheduler parked or
// stopped with instead. Skip a shard whose scheduler has parked an error:
// its queue never empties. Its checkpoints are still waited for: the
// checkpointer serves it all the same.
//
// Called after every write it reproduces the paper's inline merge
// sequence: the scheduler goroutine runs exactly the steps an inline
// cascade would, in the same order, before the next write is admitted, so
// BlocksWritten is a pure function of the options and the writes. It is
// exported from a test file so the external test package can call it.
func DrainCompaction(db *DB, skip ...int) error {
	for _, s := range db.shards {
		if slices.Contains(skip, s.id) {
			continue
		}
		if err := s.sched.WaitIdle(); err != nil {
			return fmt.Errorf("shard %d: %w", s.id, err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for _, s := range db.shards {
		for s.checkpointOwed() {
			if db.closed.Load() {
				return ErrClosed
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d: still owed a checkpoint after a minute", s.id)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}
