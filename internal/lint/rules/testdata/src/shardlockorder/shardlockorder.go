// Package shardlockorder seeds violations of the shard-lock-order rule:
// nested shard writer locks outside the sanctioned fan-out helpers, and
// a fan-out helper that accumulates locks without ranging over the shard
// slice. The fixed shapes (sequential per-shard lock/unlock, the
// range-based fan-out storing escaping unlocks) ride along as negatives.
package shardlockorder

import "sync"

type shard struct {
	writerMu sync.Mutex
}

type db struct {
	shards []*shard
}

// nested holds shard 0's lock while taking shard 1's: two such sites
// disagreeing on order is a deadlock.
func nested(d *db) {
	d.shards[0].writerMu.Lock()
	d.shards[1].writerMu.Lock() // want shard-lock-order
	d.shards[1].writerMu.Unlock()
	d.shards[0].writerMu.Unlock()
}

// heldThroughDefer: a deferred unlock releases at return, not at the
// defer statement, so the second Lock still nests.
func heldThroughDefer(d *db) {
	d.shards[0].writerMu.Lock()
	defer d.shards[0].writerMu.Unlock()
	d.shards[1].writerMu.Lock() // want shard-lock-order
	d.shards[1].writerMu.Unlock()
}

// helperWhileHeld: lock-acquire helpers take a shard writer lock too,
// so calling one under a held lock nests just the same.
func helperWhileHeld(d *db) {
	d.shards[0].writerMu.Lock()
	_ = d.lockedTree() // want shard-lock-order
	d.shards[0].writerMu.Unlock()
}

// accumulateInLoop takes every shard's lock in an ordinary loop without
// being a sanctioned fan-out: the second iteration's Lock nests.
func accumulateInLoop(d *db) {
	for i := 0; i < len(d.shards); i++ {
		d.shards[i].writerMu.Lock() // want shard-lock-order
	}
	for _, s := range d.shards {
		s.writerMu.Unlock()
	}
}

// lockShardsDesc is configured as a fan-out helper by the test, but
// takes the locks in a hand-rolled descending loop instead of ranging
// over the shard slice: acquisition order is unspecified.
func (d *db) lockShardsDesc() func() {
	for i := len(d.shards) - 1; i >= 0; i-- {
		d.shards[i].writerMu.Lock() // want shard-lock-order
	}
	return func() {
		for _, s := range d.shards {
			s.writerMu.Unlock()
		}
	}
}

// sequentialPerShard releases each shard before locking the next: no
// nesting, no finding.
func sequentialPerShard(d *db) {
	for _, s := range d.shards {
		s.writerMu.Lock()
		s.writerMu.Unlock()
	}
}

// relockAfterExplicitUnlock releases shard 0 before taking shard 1, so
// at most one lock is ever held.
func relockAfterExplicitUnlock(d *db) {
	d.shards[0].writerMu.Lock()
	d.shards[0].writerMu.Unlock()
	d.shards[1].writerMu.Lock()
	d.shards[1].writerMu.Unlock()
}

// afterTokenRelease: calling the helper's unlock token releases the
// lock, so the following Lock does not nest.
func afterTokenRelease(d *db) {
	unlock := d.lockedTree()
	unlock()
	d.shards[1].writerMu.Lock()
	d.shards[1].writerMu.Unlock()
}

// lockShards is the sanctioned fan-out shape: ranging over the shard
// slice, given in ascending order, visits ascending indices.
func lockShards(shards []*shard) {
	for _, s := range shards {
		s.writerMu.Lock()
	}
}

// unlockShards is lockShards' release helper.
func unlockShards(shards []*shard) {
	for _, s := range shards {
		s.writerMu.Unlock()
	}
}

// writeAll holds every shard's lock through the sanctioned helpers: no
// finding.
func writeAll(d *db) {
	lockShards(d.shards)
	defer unlockShards(d.shards)
}

// lockAfterRelease: the release helper ends the hold, so the following
// Lock does not nest.
func lockAfterRelease(d *db) {
	lockShards(d.shards)
	unlockShards(d.shards)
	d.shards[0].writerMu.Lock()
	d.shards[0].writerMu.Unlock()
}

// lockWhileFannedOut: a Lock under the fan-out helper's hold nests.
func lockWhileFannedOut(d *db) {
	lockShards(d.shards)
	d.shards[0].writerMu.Lock() // want shard-lock-order
	d.shards[0].writerMu.Unlock()
	unlockShards(d.shards)
}

// lockedTree mimics the production acquire helper: one shard's lock,
// release obligation escaping to the caller.
func (d *db) lockedTree() func() {
	s := d.shards[0]
	s.writerMu.Lock()
	return s.writerMu.Unlock
}

// relockLocked follows the caller-holds-lock convention, so any lock it
// takes nests inside the caller's.
func (d *db) relockLocked() {
	d.shards[1].writerMu.Lock() // want shard-lock-order
	d.shards[1].writerMu.Unlock()
}
