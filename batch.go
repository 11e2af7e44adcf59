package lsmssd

import (
	"cmp"
	"slices"

	"lsmssd/internal/block"
	"lsmssd/internal/obs"
)

// WriteBatch collects Put and Delete operations to be applied in one call.
// Apply commits the whole batch as one mutation: one frame in the
// write-ahead log (group commit: under SyncEvery a thousand-record batch
// costs one fsync), one writer-lock acquisition, one merge-cascade check
// and one snapshot publication per touched shard. It is atomic on every
// count, however many shards its keys span: no reader observes part of it,
// and a power cut keeps all of it or none.
//
// A batch holds no reference to a DB: it may be applied to any DB, which
// routes its operations by its own shard layout at Apply.
//
// A WriteBatch is not safe for concurrent use. It may be reused after
// Apply via Reset.
type WriteBatch struct {
	// ops holds the queued operations in append order: the logged frame.
	ops []block.Op

	// byShard and shards are Apply's scratch, kept for the next Apply: the
	// operations grouped by owning shard (append order within a shard) and
	// the shards they touch, ascending.
	byShard []block.Op
	shards  []*shard
}

// NewBatch returns an empty write batch. The zero WriteBatch is equally
// usable.
func (db *DB) NewBatch() *WriteBatch { return &WriteBatch{} }

// Put queues an insert or update of the value stored for key. The value
// slice is retained — by the batch, then by the memtable once Apply lands
// it — so the caller must not modify it afterwards.
func (b *WriteBatch) Put(key uint64, value []byte) {
	b.ops = append(b.ops, block.Op{Key: key, Value: value})
}

// Delete queues a removal of key.
func (b *WriteBatch) Delete(key uint64) {
	b.ops = append(b.ops, block.Op{Key: key, Delete: true})
}

// Len returns the number of queued operations.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse, retaining its capacity.
func (b *WriteBatch) Reset() { b.ops = b.ops[:0] }

// Apply executes the batch's operations as one atomic mutation, in append
// order, so later operations on the same key win, exactly as if issued
// sequentially; request statistics count each operation individually. The
// batch itself is not consumed — Reset it to reuse, or Apply it again to
// re-run the same operations.
//
// Every shard the batch touches admits it first (write-stall
// backpressure, as for Put); a batch that touches a read-only shard is
// refused whole, before anything is logged. The batch is then logged as
// one frame, and applied to every touched shard while their writer locks
// are held together. An error from after the apply — a merge failure a
// shard's scheduler parked, or a Paranoid audit — is reported once the
// whole batch is applied.
func (db *DB) Apply(b *WriteBatch) error {
	if len(b.ops) == 0 {
		// An empty batch still goes through one shard's admission and
		// cascade check, preserving the pre-sharding semantics (a stalled
		// or failed engine reports it).
		return db.write(obs.OpApply, nil, nil, db.shards[:1])
	}
	b.byShard, b.shards = db.split(b.ops, b.byShard[:0], b.shards[:0])
	return db.write(obs.OpApply, b.ops, b.byShard, b.shards)
}

// split groups ops by owning shard for the write path: it returns them
// with each shard's operations contiguous, shards ascending and append
// order kept within a shard, and the touched shards in the same order.
// ops that all belong to one shard come back as they are; otherwise the
// grouped copy is built in byShard's storage. shards is appended to.
func (db *DB) split(ops, byShard []block.Op, shards []*shard) ([]block.Op, []*shard) {
	first := ops[0].Key & db.mask
	if !slices.ContainsFunc(ops[1:], func(op block.Op) bool { return op.Key&db.mask != first }) {
		return ops, append(shards, db.shards[first])
	}
	byShard = append(byShard, ops...)
	slices.SortStableFunc(byShard, func(a, b block.Op) int { return cmp.Compare(a.Key&db.mask, b.Key&db.mask) })
	for i, op := range byShard {
		if i == 0 || op.Key&db.mask != byShard[i-1].Key&db.mask {
			shards = append(shards, db.shards[op.Key&db.mask])
		}
	}
	return byShard, shards
}
