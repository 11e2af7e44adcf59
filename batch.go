package lsmssd

import (
	"errors"

	"lsmssd/internal/block"
	"lsmssd/internal/obs"
)

// ErrBatchDB is returned by Apply when a batch created by one DB's
// NewBatch is applied to a different DB. A batch partitions its
// operations by the creating DB's shard layout at append time, so
// applying it elsewhere would route keys to the wrong trees.
var ErrBatchDB = errors.New("lsmssd: batch was created by a different DB")

// WriteBatch collects Put and Delete operations to be applied in one call.
// Batching amortizes the per-request overhead — one writer-lock
// acquisition, one merge-cascade check, and one snapshot publication per
// touched shard for the whole batch instead of one per record — and gives
// readers per-shard atomicity: no snapshot observes a prefix of a shard's
// slice of an applied batch. With Shards = 1 (the default) the whole
// batch is atomic; with more shards, each shard's portion commits as a
// unit but a concurrent reader may observe one shard's portion before
// another's.
//
// A WriteBatch is not safe for concurrent use. It may be reused after
// Apply via Reset.
type WriteBatch struct {
	// db is the DB this batch was created by; Apply rejects any other.
	// A zero-value &WriteBatch{} has no binding and partitions at Apply.
	db *DB

	// perShard holds the queued operations pre-partitioned by owning
	// shard, each slice in append order. Unbound batches use a single
	// slice. n is the total across slices.
	perShard [][]block.Op
	n        int
}

// NewBatch returns an empty write batch for use with this DB's Apply.
// The batch is bound to db: its operations are partitioned by db's shard
// layout as they are appended, and applying it to a different DB fails
// with ErrBatchDB.
func (db *DB) NewBatch() *WriteBatch {
	return &WriteBatch{db: db, perShard: make([][]block.Op, len(db.shards))}
}

// bucket returns the partition that should receive key's operation.
func (b *WriteBatch) bucket(key uint64) *[]block.Op {
	if b.db == nil {
		// Unbound (zero-value) batch: single staging slice, partitioned by
		// the receiving DB at Apply.
		if b.perShard == nil {
			b.perShard = make([][]block.Op, 1)
		}
		return &b.perShard[0]
	}
	return &b.perShard[key&b.db.mask]
}

// Put queues an insert or update of the value stored for key. The value
// slice is retained until Apply; the caller must not modify it before
// then.
func (b *WriteBatch) Put(key uint64, value []byte) {
	ops := b.bucket(key)
	*ops = append(*ops, block.Op{Key: key, Value: value})
	b.n++
}

// Delete queues a removal of key.
func (b *WriteBatch) Delete(key uint64) {
	ops := b.bucket(key)
	*ops = append(*ops, block.Op{Key: key, Delete: true})
	b.n++
}

// Len returns the number of queued operations.
func (b *WriteBatch) Len() int { return b.n }

// Reset empties the batch for reuse, retaining its capacity and DB
// binding.
func (b *WriteBatch) Reset() {
	for i := range b.perShard {
		b.perShard[i] = b.perShard[i][:0]
	}
	b.n = 0
}

// Apply executes the batch's operations as a single atomic writer step
// per touched shard, shards in ascending order. Within a shard the
// operations run in append order, so later operations on the same key
// win, exactly as if issued sequentially; request statistics count each
// operation individually. The batch itself is not consumed — Reset it to
// reuse, or Apply it again to re-run the same operations. Like Put,
// Apply is subject to write-stall backpressure under background
// compaction (one admission per touched shard).
//
// With the WAL enabled each touched shard's slice is logged as one frame
// on that shard's log — group commit: under SyncEvery a thousand-record
// batch costs one fsync per touched shard, not a thousand — and replay
// re-applies each frame atomically.
//
// Across shards Apply is not atomic, on either count:
//   - It stops at the first shard whose write fails and returns that
//     error. The portions of the shards before it stay applied, the shards
//     after it are not attempted, and the failing shard's own portion is
//     applied only if its write failed after the apply (a merge or audit
//     error, not admission or the WAL append).
//   - Each portion is its own frame on its own shard's log, so a power cut
//     keeps or loses each portion independently.
func (db *DB) Apply(b *WriteBatch) error {
	if b.db != nil && b.db != db {
		return ErrBatchDB
	}
	if b.db == nil && b.n > 0 && len(db.shards) > 1 {
		// Unbound batch against a sharded DB: partition its staging slice
		// now, exactly as NewBatch would have at append time.
		staged := b.perShard[0]
		b.db = db
		b.perShard = make([][]block.Op, len(db.shards))
		b.n = 0
		for _, op := range staged {
			ops := b.bucket(op.Key)
			*ops = append(*ops, op)
			b.n++
		}
	}
	if b.n == 0 {
		// An empty batch still goes through one shard's admission and
		// cascade check, preserving the pre-sharding semantics (a stalled
		// or failed engine reports it).
		return db.write(db.shards[0], obs.OpApply, nil)
	}
	for i, ops := range b.perShard {
		if len(ops) == 0 {
			continue
		}
		s := db.shards[0]
		if b.db != nil {
			s = db.shards[i]
		}
		if err := db.write(s, obs.OpApply, ops); err != nil {
			return err
		}
	}
	return nil
}
