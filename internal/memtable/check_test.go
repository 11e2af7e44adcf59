package memtable

import (
	"fmt"

	"lsmssd/internal/block"
)

// heightBound is the most levels a tree of n records can have under the
// fill rule: a root with two children, a quarter of innerCap children per
// inner node below it and a quarter of leafCap records per leaf.
func heightBound(n int) int {
	h := 1
	for least := 2 * leafCap / 4; least <= n; least *= innerCap / 4 {
		h++
	}
	return h
}

// check verifies the table's structure: keys sorted within and across
// leaves, every inner entry's min and count equal to its subtree's first
// key and record count, Len and Bytes equal to the records held, no empty
// node, no node but the root below the fill rule, every leaf at the same
// depth, the height within heightBound, and no node newer than its parent
// or the table (a node a snapshot froze reaches only frozen nodes).
func (t *Table) check() error {
	if t.root == nil {
		if t.count != 0 || t.bytes != 0 {
			return fmt.Errorf("empty tree with Len %d, Bytes %d", t.count, t.bytes)
		}
		return nil
	}
	if t.root.gen > t.gen {
		return fmt.Errorf("root of generation %d in a table of generation %d", t.root.gen, t.gen)
	}
	c := checker{leafDepth: -1}
	if err := c.walk(t.root, 0, true); err != nil {
		return err
	}
	if c.count != t.count || c.bytes != t.bytes {
		return fmt.Errorf("tree holds %d records of %d bytes; Len %d, Bytes %d", c.count, c.bytes, t.count, t.bytes)
	}
	if h := c.leafDepth + 1; h > heightBound(t.count) {
		return fmt.Errorf("height %d over the bound %d at %d records", h, heightBound(t.count), t.count)
	}
	return nil
}

// shape returns the tree's height and leaf count.
func (t *Table) shape() (height, leafCount int) {
	if t.root == nil {
		return 0, 0
	}
	leaves(t.root, func([]block.Record) { leafCount++ })
	for n := t.root; ; n = n.kids[0].n {
		height++
		if n.leaf() {
			return height, leafCount
		}
	}
}

type checker struct {
	leafDepth    int
	count, bytes int
	seen         bool
	last         block.Key
}

func (c *checker) walk(n *node, depth int, root bool) error {
	if n.fill() == 0 {
		return fmt.Errorf("empty node at depth %d", depth)
	}
	if n.fill() > n.capacity() || !root && n.underfull() || root && !n.leaf() && len(n.kids) < 2 {
		return fmt.Errorf("node at depth %d holds %d entries (leaf %v, root %v)", depth, n.fill(), n.leaf(), root)
	}
	if n.leaf() {
		if c.leafDepth >= 0 && depth != c.leafDepth {
			return fmt.Errorf("leaves at depths %d and %d", c.leafDepth, depth)
		}
		c.leafDepth = depth
		for _, r := range n.recs {
			if c.seen && r.Key <= c.last {
				return fmt.Errorf("key %d after %d", r.Key, c.last)
			}
			c.seen, c.last = true, r.Key
			c.count++
			c.bytes += r.Size()
		}
		return nil
	}
	for _, k := range n.kids {
		if k.n.gen > n.gen {
			return fmt.Errorf("node of generation %d under one of generation %d at depth %d", k.n.gen, n.gen, depth)
		}
		before := c.count
		if err := c.walk(k.n, depth+1, false); err != nil {
			return err
		}
		if first := k.n.entry().min; k.min != first {
			return fmt.Errorf("inner entry min %d, subtree starts at %d", k.min, first)
		}
		if got := c.count - before; k.count != got {
			return fmt.Errorf("inner entry count %d, subtree holds %d", k.count, got)
		}
	}
	return nil
}
