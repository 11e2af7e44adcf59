// Package treestate seeds violations of the tree-state rule: reading
// core.Tree's live level state from a package outside the allowlist
// instead of going through an acquired snapshot, and changing L0 from
// outside the write path that logs first.
package treestate

import (
	"lsmssd/internal/block"
	"lsmssd/internal/core"
)

func liveLevelRead(t *core.Tree) int {
	l := t.Level(1) // want tree-state
	return l.Blocks()
}

func liveMemtableRead(t *core.Tree) int {
	return t.Memtable().Len() // want tree-state
}

func writeAroundTheLog(t *core.Tree) {
	t.Put(1, nil)     // want tree-state
	t.Delete(2)       // want tree-state
	t.ApplyBatch(nil) // want tree-state
}

func throughSnapshot(t *core.Tree) (int, error) {
	v, err := t.AcquireView() // allowed: snapshot reads are the sanctioned path
	if err != nil {
		return 0, err
	}
	defer v.Release()
	n := v.MemLen()
	for _, lv := range v.Levels() {
		n += lv.Records
	}
	return n, nil
}

func otherTreeMethodsFine(t *core.Tree) int {
	return t.Height() // allowed: not a restricted accessor
}

// A Level method on an unrelated type must not trip the rule.
type shelf struct{}

func (shelf) Level(i int) int { return i }

func unrelatedLevel(k block.Key) int {
	var s shelf
	return s.Level(int(k))
}
