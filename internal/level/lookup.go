package level

import (
	"bytes"
	"sync"

	"lsmssd/internal/block"
)

// getBuffers recycles Get's block buffers.
var getBuffers = sync.Pool{New: func() any { return new(block.Block) }}

// Get returns the record stored for k, if present in this level, with a
// payload of its own. It costs at most one block read (internal index
// nodes are memory-resident).
func (l *Level) Get(k block.Key) (block.Record, bool, error) {
	i, ok := l.idx.Find(k)
	if !ok {
		return block.Record{}, false, nil
	}
	if l.blooms != nil && !l.blooms.Probe(&l.idx.All()[i].Filter, k) {
		return block.Record{}, false, nil
	}
	blk := getBuffers.Get().(*block.Block)
	defer getBuffers.Put(blk)
	if err := l.ReadAt(i, blk); err != nil {
		return block.Record{}, false, err
	}
	r, ok := blk.Find(k)
	r.Payload = bytes.Clone(r.Payload)
	return r, ok, nil
}

// Ascend calls fn for every record with key in [lo, hi] in key order,
// stopping early if fn returns false. It reads each overlapping block once,
// into a block of its own that the records' payloads point into, so fn may
// keep them (tests and tools walk levels with it; the engine's reads go
// through core.View).
func (l *Level) Ascend(lo, hi block.Key, fn func(block.Record) bool) error {
	start, end := l.idx.Overlap(lo, hi)
	for i := start; i < end; i++ {
		blk := new(block.Block)
		if err := l.ReadAt(i, blk); err != nil {
			return err
		}
		c := blk.Cursor()
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			if r.Key < lo {
				continue
			}
			if r.Key > hi {
				return nil
			}
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}
