// Package memtable implements L0, the memory-resident top level of the
// LSM-tree, as a persistent (copy-on-write) B+-tree.
//
// L0 "logs" modifications: an insert stores an index record; a delete or
// update for a key not present in L0 stores a tombstone/update record that
// will cancel out matching records in lower levels during merges
// (Section II-A). Because partial merge policies operate on block windows,
// the memtable can present its contents as a sequence of *virtual blocks*
// of B records each, with the same metadata (min key, max key, count) that
// on-storage levels expose.
//
// Leaves hold sorted runs of up to leafCap records; inner nodes hold up to
// innerCap children with each child's minimum key and record count. Every
// node records the generation of the table that created it, and Snapshot
// advances the generation: a node a snapshot can reach is of an older
// generation than the table's, and no operation changes such a node. Put
// changes nodes of the current generation in place — a leaf insert shifts
// records within the leaf's spare capacity, and a split gives each half an
// array of its own with room to grow — and copies only the older, frozen
// nodes on its path. So a Put with no Snapshot since the previous one
// allocates nothing (bar a split), and the first Put after a Snapshot
// copies one root-to-leaf path. A removal (TakeRange, RemoveUnchanged)
// copies the paths to the leaves it changes, dropping every subtree it
// empties. Every captured root stays intact, so Snapshot costs O(1) and
// returns an immutable view that can be read without synchronization while
// the table keeps changing — the property the engine's snapshot-isolated
// read path is built on.
//
// Fill rule and height bound: every node except the root holds at least a
// quarter of its capacity (8 records or 8 children). Splits leave both
// halves half full, a removal merges a node it leaves below the bound with
// a sibling or moves entries over from one, and a root left with one child
// is replaced by that child. So a tree of n records has height at most
// 1 + log_8(n/2) (5 levels at 8,192 records, 14 at 2^40) through any
// drain-and-refill cycle of L0 merges.
//
// A snapshot's Cursor seeks in O(height) and then steps in O(1) amortised,
// so a range scan over L0 costs what it returns. A Table itself is
// single-writer, and Snapshot counts as a write (it advances the
// generation): the caller serializes both. Snapshots are safe for any
// number of concurrent readers.
package memtable

import (
	"math/bits"
	"slices"

	"lsmssd/internal/block"
)

const (
	leafCap  = 32 // records per leaf
	innerCap = 32 // children per inner node
	// maxHeight is the height bound at 2^46 records; a Cursor's frames
	// fit in a fixed array up to it.
	maxHeight = 16
)

// node is one B+-tree node: a leaf when kids is nil. Only a node of the
// table's current generation is ever modified; its arrays belong to it
// alone.
type node struct {
	gen  uint64         // the table generation that created the node
	recs []block.Record // leaf: records in key order
	kids []child        // inner: children in key order
}

// child is an inner node's entry for one subtree.
type child struct {
	min   block.Key // the subtree's first key
	count int       // records in the subtree
	n     *node
}

func (n *node) leaf() bool { return n.kids == nil }

// fill is the node's entry count, the quantity the fill rule bounds.
func (n *node) fill() int {
	if n.leaf() {
		return len(n.recs)
	}
	return len(n.kids)
}

func (n *node) capacity() int {
	if n.leaf() {
		return leafCap
	}
	return innerCap
}

// underfull reports whether n breaks the fill rule (unless it is the root).
func (n *node) underfull() bool { return 4*n.fill() < n.capacity() }

// entry returns n's entry in its parent.
func (n *node) entry() child {
	if n.leaf() {
		return child{min: n.recs[0].Key, count: len(n.recs), n: n}
	}
	c := child{min: n.kids[0].min, n: n}
	for _, k := range n.kids {
		c.count += k.count
	}
	return c
}

// The searches below halve a window [base, base+n) without a branch on
// the comparison: the borrow of a subtraction says which half to keep, so
// a lookup pays no mispredictions.

// less returns 1 if a < b and 0 otherwise.
func less(a, b block.Key) int {
	_, borrow := bits.Sub64(uint64(a), uint64(b), 0)
	return int(borrow)
}

// lowerBound returns the index of the first record with key >= k.
func lowerBound(recs []block.Record, k block.Key) int {
	if len(recs) == 0 {
		return 0
	}
	base, n := 0, len(recs)
	for n > 1 {
		half := n >> 1
		base += half & -less(recs[base+half].Key, k)
		n -= half
	}
	return base + less(recs[base].Key, k)
}

// upperBound returns the index of the first record with key > k.
func upperBound(recs []block.Record, k block.Key) int {
	if k == ^block.Key(0) {
		return len(recs)
	}
	return lowerBound(recs, k+1)
}

// childFor returns the index of the child whose range holds k: the last
// child with min <= k, or 0 when k sorts before every child.
func childFor(kids []child, k block.Key) int {
	base, n := 0, len(kids)
	for n > 1 {
		half := n >> 1
		base += half &^ -less(k, kids[base+half].min)
		n -= half
	}
	return base
}

// get returns the record for k in the subtree rooted at n.
func get(n *node, k block.Key) (block.Record, bool) {
	if n == nil {
		return block.Record{}, false
	}
	for !n.leaf() {
		n = n.kids[childFor(n.kids, k)].n
	}
	if i := lowerBound(n.recs, k); i < len(n.recs) && n.recs[i].Key == k {
		return n.recs[i], true
	}
	return block.Record{}, false
}

// own returns n if the table may change it — it is of the current
// generation — and otherwise a copy of it of the current generation.
func (t *Table) own(n *node) *node {
	if n.gen == t.gen {
		return n
	}
	if n.leaf() {
		return t.newLeaf(n.recs)
	}
	return t.newInner(n.kids)
}

// newLeaf returns a leaf of the current generation holding the records of
// parts in order.
func (t *Table) newLeaf(parts ...[]block.Record) *node {
	return &node{gen: t.gen, recs: grown(leafCap, parts...)}
}

// newInner returns an inner node of the current generation holding the
// children of parts in order.
func (t *Table) newInner(parts ...[]child) *node {
	return &node{gen: t.gen, kids: grown(innerCap, parts...)}
}

// grown returns the concatenation of parts in a new array with room for at
// least capacity+1 entries, so the insert that overflows a node shifts in
// place before the node splits.
func grown[T any](capacity int, parts ...[]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, max(n, capacity+1))
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// put stores r in the subtree rooted at n, a node of the current
// generation, in one descent. Nodes of the current generation change in
// place; a frozen child on the path is replaced by its copy first. When n
// overflows it is split and right is its upper half. old and replaced
// report the record r overwrote.
func (t *Table) put(n *node, r block.Record) (right *node, old block.Record, replaced bool) {
	if n.leaf() {
		i := lowerBound(n.recs, r.Key)
		if i < len(n.recs) && n.recs[i].Key == r.Key {
			old, n.recs[i] = n.recs[i], r
			return nil, old, true
		}
		n.recs = slices.Insert(n.recs, i, r)
		return t.split(n), old, false
	}
	i := childFor(n.kids, r.Key)
	sub := t.own(n.kids[i].n)
	subRight, old, replaced := t.put(sub, r)
	if subRight == nil {
		k := &n.kids[i]
		k.n, k.min = sub, min(k.min, r.Key)
		if !replaced {
			k.count++
		}
		return nil, old, replaced
	}
	n.kids = slices.Insert(n.kids, i+1, subRight.entry())
	n.kids[i] = sub.entry()
	return t.split(n), old, replaced
}

// ascend visits records with key in [lo, hi] in key order, returning false
// if fn stopped the walk.
func ascend(n *node, lo, hi block.Key, fn func(block.Record) bool) bool {
	if n.leaf() {
		for i := lowerBound(n.recs, lo); i < len(n.recs) && n.recs[i].Key <= hi; i++ {
			if !fn(n.recs[i]) {
				return false
			}
		}
		return true
	}
	for i := childFor(n.kids, lo); i < len(n.kids) && n.kids[i].min <= hi; i++ {
		if !ascend(n.kids[i].n, lo, hi, fn) {
			return false
		}
	}
	return true
}

// leaves calls fn with each leaf's records in key order.
func leaves(n *node, fn func([]block.Record)) {
	if n.leaf() {
		fn(n.recs)
		return
	}
	for _, k := range n.kids {
		leaves(k.n, fn)
	}
}

// filter removes the records with key in [lo, hi] for which rm returns
// true, calling rm once on each such record, in key order. It returns n
// itself when nothing is removed, nil when everything under n is, and
// otherwise a new node of the current generation whose children meet the
// fill rule (the node itself may be underfull; its parent fixes that).
// Only the nodes on the paths to removed records are copied; filter
// changes no existing node.
func (t *Table) filter(n *node, lo, hi block.Key, rm func(block.Record) bool) *node {
	if n.leaf() {
		i, j := lowerBound(n.recs, lo), upperBound(n.recs, hi)
		x := i
		for x < j && !rm(n.recs[x]) {
			x++
		}
		if x == j {
			return n
		}
		var kept []block.Record // the records of (x, j) that stay
		for y := x + 1; y < j; y++ {
			if !rm(n.recs[y]) {
				kept = append(kept, n.recs[y])
			}
		}
		if x == 0 && len(kept) == 0 && j == len(n.recs) {
			return nil
		}
		return t.newLeaf(n.recs[:x], kept, n.recs[j:])
	}
	a, b := childFor(n.kids, lo), childFor(n.kids, hi)
	var c *node
	var copied []int // positions in c.kids of the copied children
	for x := a; x <= b; x++ {
		sub := t.filter(n.kids[x].n, lo, hi, rm)
		switch {
		case sub == n.kids[x].n:
			if c != nil {
				c.kids = append(c.kids, n.kids[x])
			}
			continue
		case c == nil:
			c = t.newInner(n.kids[:x])
		}
		if sub != nil {
			copied = append(copied, len(c.kids))
			c.kids = append(c.kids, sub.entry())
		}
	}
	if c == nil {
		return n // the window removed no record under n
	}
	c.kids = append(c.kids, n.kids[b+1:]...)
	if len(c.kids) == 0 {
		return nil
	}
	// Fix the copied children from the right: rebalancing one merges it
	// with a neighbour at most one position to its left, so the positions
	// still to visit stay valid.
	for x := len(copied) - 1; x >= 0; x-- {
		c.kids = t.rebalance(c.kids, copied[x])
	}
	return c
}

// rebalance restores the fill rule at kids[i] (a slice the caller owns) by
// merging the child with a neighbour or, when the two hold more than one
// node's capacity, splitting their entries evenly between two new nodes.
// A merged node can itself be underfull when both inputs were; it is
// rebalanced again.
func (t *Table) rebalance(kids []child, i int) []child {
	for i < len(kids) && len(kids) > 1 && kids[i].n.underfull() {
		j := i + 1
		if j == len(kids) {
			i, j = i-1, i
		}
		l := t.merge(kids[i].n, kids[j].n)
		r := t.split(l)
		if r == nil {
			kids[i] = l.entry()
			kids = append(kids[:j], kids[j+1:]...)
			continue
		}
		kids[i], kids[j] = l.entry(), r.entry()
	}
	return kids
}

// merge returns a new node of the current generation holding l's entries
// followed by r's; l and r are siblings, so both are leaves or both are
// inner nodes. An inner node that a removal left with one child may hold
// an underfull one, so the two children that meet at the seam are
// rebalanced.
func (t *Table) merge(l, r *node) *node {
	if l.leaf() {
		return t.newLeaf(l.recs, r.recs)
	}
	c := t.newInner(l.kids, r.kids)
	seam := len(l.kids)
	c.kids = t.rebalance(c.kids, seam)
	c.kids = t.rebalance(c.kids, seam-1)
	return c
}

// split leaves n, a node of the current generation, alone and returns nil
// if it fits its capacity. Otherwise it moves the upper half of n's
// entries to a new node with an array of its own and returns that node.
func (t *Table) split(n *node) (right *node) {
	if n.fill() <= n.capacity() {
		return nil
	}
	h := n.fill() / 2
	if n.leaf() {
		right = t.newLeaf(n.recs[h:])
		clear(n.recs[h:]) // drop the moved payloads' references
		n.recs = n.recs[:h]
		return right
	}
	right = t.newInner(n.kids[h:])
	clear(n.kids[h:])
	n.kids = n.kids[:h]
	return right
}

// Table is the L0 index. Mutations and Snapshot are single-writer (the
// tree serializes them); captured Snapshots remain readable concurrently.
type Table struct {
	root  *node
	count int
	bytes int
	gen   uint64 // the generation nodes created now get; Snapshot advances it
}

// New returns an empty memtable. The seed is ignored: the tree's shape
// depends only on the operations applied, so runs are reproducible
// without one.
func New(_ int64) *Table { return &Table{} }

// Len returns the number of records (including tombstones) in the table.
func (t *Table) Len() int { return t.count }

// Bytes returns the total request-byte footprint of the stored records.
func (t *Table) Bytes() int { return t.bytes }

// Put inserts or overwrites the record for r.Key. It changes nodes created
// since the last Snapshot in place and copies the frozen ones on its path.
func (t *Table) Put(r block.Record) {
	if t.root == nil {
		t.root = t.newLeaf()
	}
	t.root = t.own(t.root)
	right, old, replaced := t.put(t.root, r)
	if right != nil {
		t.root = t.newInner([]child{t.root.entry(), right.entry()})
	}
	t.bytes += r.Size()
	if replaced {
		t.bytes -= old.Size()
	} else {
		t.count++
	}
}

// Get returns the record stored for k, if any. The caller must check
// Tombstone to interpret the result.
func (t *Table) Get(k block.Key) (block.Record, bool) {
	return get(t.root, k)
}

// Ascend calls fn for each record with key in [lo, hi] in key order,
// stopping early if fn returns false.
func (t *Table) Ascend(lo, hi block.Key, fn func(block.Record) bool) {
	if t.root != nil {
		ascend(t.root, lo, hi, fn)
	}
}

// TakeRange removes and returns all records with key in [lo, hi], in key
// order.
func (t *Table) TakeRange(lo, hi block.Key) []block.Record {
	var out []block.Record
	t.remove(lo, hi, func(r block.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// RemoveUnchanged removes the records with key in [lo, hi] that old holds
// unchanged — the same key, tombstone flag and payload slice — and keeps
// every record of the window written since old was captured. It returns
// the number of records removed. An L0 merge installs with it: the merge
// copied old's window into the level below, so a record old still holds
// has that copy, while one rewritten or deleted mid-merge is newer than
// the copy and must stay to shadow it. Payloads are compared by identity,
// not contents: an unchanged record is the very one old captured.
func (t *Table) RemoveUnchanged(lo, hi block.Key, old *Snapshot) int {
	c := old.Cursor(lo, hi)
	return t.remove(lo, hi, func(r block.Record) bool {
		p, ok := c.Peek()
		for ok && p.Key < r.Key {
			c.Advance()
			p, ok = c.Peek()
		}
		return ok && p.Key == r.Key && same(p, r)
	})
}

// same reports whether a and b are one record: equal keys and tombstone
// flags, and the same payload bytes in memory.
func same(a, b block.Record) bool {
	if a.Key != b.Key || a.Tombstone != b.Tombstone || len(a.Payload) != len(b.Payload) {
		return false
	}
	return len(a.Payload) == 0 || &a.Payload[0] == &b.Payload[0]
}

// remove drops the records with key in [lo, hi] that rm selects and
// returns how many it dropped.
func (t *Table) remove(lo, hi block.Key, rm func(block.Record) bool) int {
	if t.root == nil || lo > hi {
		return 0
	}
	n, bytes := 0, 0
	root := t.filter(t.root, lo, hi, func(r block.Record) bool {
		if !rm(r) {
			return false
		}
		n, bytes = n+1, bytes+r.Size()
		return true
	})
	if root == t.root {
		return 0
	}
	for root != nil && !root.leaf() && len(root.kids) == 1 {
		root = root.kids[0].n
	}
	t.root = root
	t.count -= n
	t.bytes -= bytes
	return n
}

// VirtualMeta describes one virtual block of the memtable: a run of up to
// capacity records presented with level-style block metadata so that the
// partial merge policies (RR, ChooseBest) can treat L0 like any other
// source level.
type VirtualMeta struct {
	Min, Max block.Key
	Count    int
}

// VirtualBlocks chunks the table into virtual blocks of the given capacity;
// see Snapshot.VirtualBlocks. It reads the table as it stands and freezes
// nothing.
func (t *Table) VirtualBlocks(capacity int) []VirtualMeta {
	s := Snapshot{root: t.root, count: t.count}
	return s.VirtualBlocks(capacity)
}

// Snapshot is an immutable point-in-time view of the table, safe for
// concurrent readers while the table keeps mutating.
type Snapshot struct {
	root  *node
	count int
}

// Snapshot captures the current contents in O(1). It advances the
// generation, which freezes every node the snapshot can reach: the next
// Put copies the path it changes, once, and the Puts after it change those
// copies in place.
func (t *Table) Snapshot() *Snapshot {
	t.gen++
	return &Snapshot{root: t.root, count: t.count}
}

// Len returns the number of records (including tombstones) in the snapshot.
func (s *Snapshot) Len() int { return s.count }

// Get returns the record stored for k at capture time, if any.
func (s *Snapshot) Get(k block.Key) (block.Record, bool) {
	return get(s.root, k)
}

// VirtualBlocks chunks the snapshot into virtual blocks of the given
// capacity (the records of rank [i·capacity, (i+1)·capacity) form block i)
// and returns their metadata. It walks the leaves with a running rank and
// reads each block's first and last record by index, in O(leaves + blocks).
func (s *Snapshot) VirtualBlocks(capacity int) []VirtualMeta {
	if capacity < 1 {
		panic("memtable: capacity must be >= 1")
	}
	if s.root == nil {
		return nil
	}
	metas := make([]VirtualMeta, (s.count+capacity-1)/capacity)
	base := 0 // rank of the leaf's first record
	leaves(s.root, func(recs []block.Record) {
		end := base + len(recs)
		for b := base / capacity; b*capacity < end; b++ {
			first, last := b*capacity, min((b+1)*capacity, s.count)-1
			if first >= base {
				metas[b].Min = recs[first-base].Key
			}
			if last < end {
				metas[b].Max, metas[b].Count = recs[last-base].Key, last-first+1
			}
		}
		base = end
	})
	return metas
}

// Cursor returns a cursor positioned at the first captured record with key
// >= lo that yields records up to hi. The seek costs O(height) and copies
// no records.
func (s *Snapshot) Cursor(lo, hi block.Key) *Cursor {
	c := &Cursor{hi: hi}
	c.stack = c.buf[:0]
	if s.root == nil {
		return c
	}
	n := s.root
	for !n.leaf() {
		i := childFor(n.kids, lo)
		c.stack = append(c.stack, frame{n, i})
		n = n.kids[i].n
	}
	c.stack = append(c.stack, frame{n, lowerBound(n.recs, lo)})
	if c.stack[len(c.stack)-1].i == len(n.recs) {
		c.nextLeaf()
	}
	c.clip()
	return c
}

// Cursor walks a snapshot's records in key order. Its stack holds one
// (node, index) frame per level, root first; the top frame is the current
// leaf and the current record's index in it, so each Advance costs O(1)
// amortised. Snapshot nodes are never modified, so a cursor needs no lock;
// a single cursor is not safe for concurrent use.
type Cursor struct {
	hi    block.Key
	stack []frame
	buf   [maxHeight]frame // backs stack, so a seek allocates once
}

type frame struct {
	n *node
	i int
}

// Peek returns the current record, or false once the cursor has passed hi
// or run out of records.
func (c *Cursor) Peek() (block.Record, bool) {
	if len(c.stack) == 0 {
		return block.Record{}, false
	}
	f := &c.stack[len(c.stack)-1]
	return f.n.recs[f.i], true
}

// Advance moves the cursor to the next record in key order.
func (c *Cursor) Advance() {
	if len(c.stack) == 0 {
		return
	}
	f := &c.stack[len(c.stack)-1]
	if f.i++; f.i == len(f.n.recs) {
		c.nextLeaf()
	}
	c.clip()
}

// nextLeaf replaces the exhausted top leaf with the first record of the
// next leaf, or empties the stack when there is none.
func (c *Cursor) nextLeaf() {
	d := len(c.stack) - 2 // deepest inner frame
	for d >= 0 && c.stack[d].i+1 == len(c.stack[d].n.kids) {
		d--
	}
	if d < 0 {
		c.stack = c.stack[:0]
		return
	}
	c.stack[d].i++
	for l := d + 1; l < len(c.stack); l++ {
		p := c.stack[l-1]
		c.stack[l] = frame{p.n.kids[p.i].n, 0}
	}
}

// clip empties the stack once its top is past hi, so a finished cursor
// answers Peek with one length check.
func (c *Cursor) clip() {
	if len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		if f.n.recs[f.i].Key > c.hi {
			c.stack = c.stack[:0]
		}
	}
}
