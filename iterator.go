package lsmssd

import (
	"lsmssd/internal/block"
	"lsmssd/internal/core"
	"lsmssd/internal/obs"
)

// Iterator streams the keys in [lo, hi] in ascending order, pinned to the
// snapshot that was current when NewIterator was called: writes and merges
// that complete during the iteration do not change what it returns. On a
// sharded DB the per-shard snapshots are acquired together — between two
// multi-shard Applies, so an iterator sees all of a batch or none of it —
// and merged into one globally ordered stream; the hash partition guarantees the streams
// are disjoint, so the merge is a pure k-way interleave. Every per-shard
// stream is lazy, L0 included: opening an iterator seeks each sorted run —
// the memtable snapshot in O(log n) — and Next loads blocks only as it
// reaches them, so an iteration that stops early costs what it returned,
// not what [lo, hi] spans.
//
// The usage pattern is the standard one:
//
//	it, err := db.NewIterator(lo, hi)
//	if err != nil { ... }
//	defer it.Close()
//	for it.Next() {
//	    use(it.Key(), it.Value())
//	}
//	if err := it.Err(); err != nil { ... }
//
// An Iterator must be used from one goroutine at a time, and Close must be
// called to release its snapshots — a forgotten iterator pins device blocks
// the engine would otherwise recycle. Iterators from different goroutines
// are independent.
type Iterator struct {
	db     *DB
	views  []*core.View
	err    error
	closed bool

	// heap is a min-heap of the per-shard cursors that still have a
	// current entry, ordered by that entry's key. cur is the cursor whose
	// entry Next most recently surfaced (nil before the first Next).
	heap []*shardCursor
	cur  *shardCursor

	// chunk holds copies of the values the cursors stand on. A shard's
	// stream reuses its block buffers, so each value is copied here as
	// its cursor reaches it; a full chunk is left to the values that
	// point into it, never reused, so a returned value stays valid.
	// Scan, whose callback may use a value only until it returns, sets
	// borrow and is handed the streams' own bytes instead: a value stays
	// put until its shard's stream moves past it, which is after the
	// callback returns.
	chunk  []byte
	borrow bool

	cursors []*shardCursor // every shard's, closed by Close
}

// valueChunk is the size of the chunks values are copied into.
const valueChunk = 4 << 10

// shardCursor is one shard's stream positioned at its current entry.
type shardCursor struct {
	it  *core.Iter
	key block.Key
	val []byte
}

// NewIterator returns an iterator over the keys in [lo, hi] as of the
// current snapshot. The full key space is [0, ^uint64(0)].
func (db *DB) NewIterator(lo, hi uint64) (*Iterator, error) {
	return db.newIterator(lo, hi, nil, false)
}

// newIterator is NewIterator with latency attribution: a non-nil sp is
// handed to every shard's stream before it is primed, so the L0 seeks land
// in PhaseMemtable and every block load — the priming ones included — in
// PhaseCacheRead or PhaseDevRead. It returns with sp in PhaseKWayMerge.
// borrow hands out values without copying them (Scan's; see chunk).
func (db *DB) newIterator(lo, hi uint64, sp *obs.Span, borrow bool) (*Iterator, error) {
	it := &Iterator{db: db, views: make([]*core.View, 0, len(db.shards)), borrow: borrow}
	// Between two multi-shard Applies' publications, so the views hold all
	// of each batch or none of it.
	db.pubMu.RLock()
	for _, s := range db.shards {
		v, err := s.acquireView()
		if err != nil {
			db.pubMu.RUnlock()
			for _, held := range it.views {
				held.Release()
			}
			return nil, err
		}
		it.views = append(it.views, v)
	}
	db.pubMu.RUnlock()
	sp.To(obs.PhaseKWayMerge)
	for _, v := range it.views {
		c := &shardCursor{it: v.Iter(block.Key(lo), block.Key(hi), sp)}
		it.cursors = append(it.cursors, c)
		if it.advance(c) {
			it.push(c)
		} else if err := c.it.Err(); err != nil && it.err == nil {
			it.err = err
		}
	}
	return it, nil
}

// advance moves c to its stream's next entry, copying the entry's value
// into the iterator's chunk, and reports whether one exists.
func (it *Iterator) advance(c *shardCursor) bool {
	if !c.it.Next() {
		return false
	}
	c.key, c.val = c.it.Key(), c.it.Value()
	if !it.borrow {
		c.val = it.keep(c.val)
	}
	return true
}

// keep returns a copy of v in the iterator's chunk, capped at its length
// so an append by the caller cannot run into the next value.
func (it *Iterator) keep(v []byte) []byte {
	if v == nil {
		return nil
	}
	if cap(it.chunk)-len(it.chunk) < len(v) {
		it.chunk = make([]byte, 0, max(valueChunk, len(v)))
	}
	n := len(it.chunk)
	it.chunk = append(it.chunk, v...)
	return it.chunk[n : n+len(v) : n+len(v)]
}

// push inserts a cursor into the min-heap.
func (it *Iterator) push(c *shardCursor) {
	it.heap = append(it.heap, c)
	i := len(it.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if it.heap[parent].key <= it.heap[i].key {
			break
		}
		it.heap[parent], it.heap[i] = it.heap[i], it.heap[parent]
		i = parent
	}
}

// pop removes and returns the cursor with the smallest current key.
func (it *Iterator) pop() *shardCursor {
	top := it.heap[0]
	last := len(it.heap) - 1
	it.heap[0] = it.heap[last]
	it.heap[last] = nil
	it.heap = it.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(it.heap) && it.heap[l].key < it.heap[min].key {
			min = l
		}
		if r < len(it.heap) && it.heap[r].key < it.heap[min].key {
			min = r
		}
		if min == i {
			break
		}
		it.heap[i], it.heap[min] = it.heap[min], it.heap[i]
		i = min
	}
	return top
}

// Next advances to the next key, reporting whether one exists. It returns
// false after the range is exhausted, after an error (check Err), after
// Close, and after the DB is closed.
func (it *Iterator) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.db.closed.Load() {
		// The snapshots themselves are still pinned, but their devices may
		// be gone; fail deterministically rather than surface an I/O error.
		it.err = ErrClosed
		return false
	}
	if it.cur != nil {
		if it.advance(it.cur) {
			it.push(it.cur)
		} else if err := it.cur.it.Err(); err != nil {
			it.err = err
			it.cur = nil
			return false
		}
		it.cur = nil
	}
	if len(it.heap) == 0 {
		return false
	}
	it.cur = it.pop()
	return true
}

// Key returns the current key. Valid only after Next returned true.
func (it *Iterator) Key() uint64 { return uint64(it.cur.key) }

// Value returns the current value. Valid only after Next returned true.
// The slice belongs to the iterator, which never reuses it: it stays
// valid after Next and after Close, and must not be modified (other
// values share its chunk).
func (it *Iterator) Value() []byte { return it.cur.val }

// Err returns the first error the iteration hit, if any. Exhausting the
// range is not an error.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's snapshots and returns Err. Closing an
// already-closed iterator is a no-op returning the same error.
func (it *Iterator) Close() error {
	if !it.closed {
		it.closed = true
		for _, c := range it.cursors {
			c.it.Close()
		}
		for _, v := range it.views {
			v.Release()
		}
	}
	return it.Err()
}
