// Package memtable implements L0, the memory-resident top level of the
// LSM-tree, as a persistent (copy-on-write) treap.
//
// L0 "logs" modifications: an insert stores an index record; a delete or
// update for a key not present in L0 stores a tombstone/update record that
// will cancel out matching records in lower levels during merges
// (Section II-A). Because partial merge policies operate on block windows,
// the memtable can present its contents as a sequence of *virtual blocks*
// of B records each, with the same metadata (min key, max key, count) that
// on-storage levels expose.
//
// The treap is persistent: every mutation path-copies the O(log n) nodes
// between the root and the touched key, leaving all previously captured
// roots intact. Snapshot therefore costs O(1) and returns an immutable
// view that can be read without synchronization while the table keeps
// changing — the property the engine's snapshot-isolated read path is
// built on. A snapshot's Cursor seeks in O(log n) and then steps in O(1)
// amortised, so a range scan over L0 costs what it returns. A Table itself
// is single-writer (the tree serializes mutations); Snapshots are safe for
// any number of concurrent readers.
package memtable

import (
	"math/rand"

	"lsmssd/internal/block"
)

// node is one immutable treap node. Nodes are never modified once linked
// into a published root; mutations clone the search path.
type node struct {
	rec   block.Record
	prio  uint64
	size  int // subtree record count (including this node)
	left  *node
	right *node
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

// clone returns a private copy of n for path-copying mutations.
func clone(n *node) *node {
	c := *n
	return &c
}

// update recomputes n's subtree size and returns n.
func (n *node) update() *node {
	n.size = size(n.left) + 1 + size(n.right)
	return n
}

// split partitions n into keys < k, the node with key == k (if any), and
// keys > k. The path to k is copied; mid is returned as-is and its child
// pointers must be ignored by the caller.
func split(n *node, k block.Key) (l, mid, r *node) {
	if n == nil {
		return nil, nil, nil
	}
	switch {
	case n.rec.Key < k:
		c := clone(n)
		l2, mid, r := split(n.right, k)
		c.right = l2
		return c.update(), mid, r
	case n.rec.Key > k:
		c := clone(n)
		l, mid, r2 := split(n.left, k)
		c.left = r2
		return l, mid, c.update()
	default:
		return n.left, n, n.right
	}
}

// splitLE partitions n into keys <= k and keys > k, path-copying.
func splitLE(n *node, k block.Key) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.rec.Key <= k {
		c := clone(n)
		l2, r2 := splitLE(n.right, k)
		c.right = l2
		return c.update(), r2
	}
	c := clone(n)
	l2, r2 := splitLE(n.left, k)
	c.left = r2
	return l2, c.update()
}

// join concatenates two treaps whose key ranges satisfy l < r, preserving
// the heap order on priorities. Both inputs are left intact.
func join(l, r *node) *node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio >= r.prio {
		c := clone(l)
		c.right = join(l.right, r)
		return c.update()
	}
	c := clone(r)
	c.left = join(l, c.left)
	return c.update()
}

// get returns the record for k in the subtree rooted at n.
func get(n *node, k block.Key) (block.Record, bool) {
	for n != nil {
		switch {
		case k < n.rec.Key:
			n = n.left
		case k > n.rec.Key:
			n = n.right
		default:
			return n.rec, true
		}
	}
	return block.Record{}, false
}

// ascend visits records with key in [lo, hi] in key order, returning false
// if fn stopped the walk.
func ascend(n *node, lo, hi block.Key, fn func(block.Record) bool) bool {
	if n == nil {
		return true
	}
	if n.rec.Key >= lo {
		if !ascend(n.left, lo, hi, fn) {
			return false
		}
		if n.rec.Key <= hi && !fn(n.rec) {
			return false
		}
	}
	if n.rec.Key <= hi {
		return ascend(n.right, lo, hi, fn)
	}
	return true
}

// Table is the L0 index. Mutations are single-writer (the tree serializes
// them); captured Snapshots remain readable concurrently.
type Table struct {
	root    *node
	bytes   int
	version uint64 // bumped by every mutation; lets callers memoize views
	rng     *rand.Rand
}

// New returns an empty memtable. The seed makes treap priorities — and
// therefore all downstream experiment traces — deterministic.
func New(seed int64) *Table {
	return &Table{rng: rand.New(rand.NewSource(seed))}
}

// Len returns the number of records (including tombstones) in the table.
func (t *Table) Len() int { return size(t.root) }

// Version returns a counter that changes with every mutation, so derived
// views (e.g. virtual-block metadata) can be cached until the table
// changes.
func (t *Table) Version() uint64 { return t.version }

// Bytes returns the total request-byte footprint of the stored records.
func (t *Table) Bytes() int { return t.bytes }

// Put inserts or overwrites the record for r.Key.
func (t *Table) Put(r block.Record) {
	t.version++
	if old, ok := get(t.root, r.Key); ok {
		t.bytes += r.Size() - old.Size()
		t.root = replace(t.root, r)
		return
	}
	l, _, rt := split(t.root, r.Key)
	n := &node{rec: r, prio: t.rng.Uint64(), size: 1}
	t.root = join(join(l, n), rt)
	t.bytes += r.Size()
}

// replace path-copies down to the node holding r.Key (which must exist)
// and swaps in the new record, keeping the tree shape.
func replace(n *node, r block.Record) *node {
	c := clone(n)
	switch {
	case r.Key < n.rec.Key:
		c.left = replace(n.left, r)
	case r.Key > n.rec.Key:
		c.right = replace(n.right, r)
	default:
		c.rec = r
	}
	return c
}

// Get returns the record stored for k, if any. The caller must check
// Tombstone to interpret the result.
func (t *Table) Get(k block.Key) (block.Record, bool) {
	return get(t.root, k)
}

// Delete removes the record for k, reporting whether it was present.
// Note this is a physical removal used when draining merged ranges; a
// logical delete request is a Put of a tombstone record.
func (t *Table) Delete(k block.Key) bool {
	t.version++
	l, mid, r := split(t.root, k)
	if mid == nil {
		return false // split copied nothing the table keeps: root unchanged
	}
	t.bytes -= mid.rec.Size()
	t.root = join(l, r)
	return true
}

// Ascend calls fn for each record with key in [lo, hi] in key order,
// stopping early if fn returns false.
func (t *Table) Ascend(lo, hi block.Key, fn func(block.Record) bool) {
	ascend(t.root, lo, hi, fn)
}

// All returns every record in key order. It allocates; use Ascend for
// streaming access.
func (t *Table) All() []block.Record {
	out := make([]block.Record, 0, t.Len())
	ascend(t.root, 0, ^block.Key(0), func(r block.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// TakeRange removes and returns all records with key in [lo, hi], in key
// order. Merges from L0 call this to drain the merged window.
func (t *Table) TakeRange(lo, hi block.Key) []block.Record {
	var out []block.Record
	t.Ascend(lo, hi, func(r block.Record) bool {
		out = append(out, r)
		return true
	})
	if len(out) == 0 {
		return out
	}
	t.version++
	left, _, rest := split(t.root, lo) // a node with key == lo is dropped here
	_, right := splitLE(rest, hi)
	t.root = join(left, right)
	for _, r := range out {
		t.bytes -= r.Size()
	}
	return out
}

// VirtualMeta describes one virtual block of the memtable: a run of up to
// capacity records presented with level-style block metadata so that the
// partial merge policies (RR, ChooseBest) can treat L0 like any other
// source level.
type VirtualMeta struct {
	Min, Max block.Key
	Count    int
}

// VirtualBlocks chunks the table into virtual blocks of the given capacity
// and returns their metadata.
func (t *Table) VirtualBlocks(capacity int) []VirtualMeta {
	if capacity < 1 {
		panic("memtable: capacity must be >= 1")
	}
	var metas []VirtualMeta
	var cur VirtualMeta
	ascend(t.root, 0, ^block.Key(0), func(r block.Record) bool {
		if cur.Count == 0 {
			cur.Min = r.Key
		}
		cur.Max = r.Key
		cur.Count++
		if cur.Count == capacity {
			metas = append(metas, cur)
			cur = VirtualMeta{}
		}
		return true
	})
	if cur.Count > 0 {
		metas = append(metas, cur)
	}
	return metas
}

// Snapshot is an immutable point-in-time view of the table, safe for
// concurrent readers while the table keeps mutating.
type Snapshot struct {
	root  *node
	bytes int
}

// Snapshot captures the current contents in O(1).
func (t *Table) Snapshot() *Snapshot {
	return &Snapshot{root: t.root, bytes: t.bytes}
}

// Len returns the number of records (including tombstones) in the snapshot.
func (s *Snapshot) Len() int { return size(s.root) }

// Bytes returns the request-byte footprint at capture time.
func (s *Snapshot) Bytes() int { return s.bytes }

// Get returns the record stored for k at capture time, if any.
func (s *Snapshot) Get(k block.Key) (block.Record, bool) {
	return get(s.root, k)
}

// Cursor returns a cursor positioned at the first captured record with key
// >= lo that yields records up to hi. The seek costs O(log n) and copies no
// records.
func (s *Snapshot) Cursor(lo, hi block.Key) *Cursor {
	c := &Cursor{hi: hi}
	c.stack = c.buf[:0]
	for n := s.root; n != nil; {
		if n.rec.Key >= lo {
			c.stack = append(c.stack, n)
			n = n.left
		} else {
			n = n.right
		}
	}
	c.clip()
	return c
}

// Cursor walks a snapshot's records in key order. It holds the ancestors
// still to be visited on a stack whose top is the current record, so each
// Advance costs O(1) amortised. Snapshot nodes are never modified, so a
// cursor needs no lock; a single cursor is not safe for concurrent use.
type Cursor struct {
	hi    block.Key
	stack []*node
	buf   [32]*node // backs stack up to depth 32, so a seek allocates once
}

// Peek returns the current record, or false once the cursor has passed hi
// or run out of records.
func (c *Cursor) Peek() (block.Record, bool) {
	if len(c.stack) == 0 {
		return block.Record{}, false
	}
	return c.stack[len(c.stack)-1].rec, true
}

// Advance moves the cursor to the next record in key order.
func (c *Cursor) Advance() {
	if len(c.stack) == 0 {
		return
	}
	n := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	for n = n.right; n != nil; n = n.left {
		c.stack = append(c.stack, n)
	}
	c.clip()
}

// clip empties the stack once its top is past hi, so a finished cursor
// answers Peek with one length check.
func (c *Cursor) clip() {
	if len(c.stack) > 0 && c.stack[len(c.stack)-1].rec.Key > c.hi {
		c.stack = c.stack[:0]
	}
}
