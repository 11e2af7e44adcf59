// Package merge implements the paper's flexible merge operation
// (Section II-B): it takes a subsequence X of a level's data blocks (or a
// window of L0's virtual blocks), merges the records therein into the
// overlapping blocks Y of the next level, and replaces Y with the output
// blocks Z — optionally reusing input blocks unmodified (block-preserving
// merge) subject to the waste checks.
package merge

import (
	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
)

// Source yields the X side of a merge: a sequence of key-ordered blocks
// with pairwise-disjoint ranges. Three implementations exist: LevelSource
// (a storage-resident level; reads count, blocks may be preserved),
// RecordSource (records drained from the memory-resident L0, chunked into
// virtual blocks; no I/O, nothing to preserve) and BlockSource (blocks
// packed in memory by a tiered fold; no I/O, nothing to preserve).
type Source interface {
	// NumBlocks returns the number of X blocks.
	NumBlocks() int
	// Meta returns the i-th block's metadata. A zero ID marks a virtual
	// block that cannot be preserved.
	Meta(i int) btree.BlockMeta
	// Load fills dst with the i-th block, counting a device read for
	// storage-backed sources. dst is the merge's reused input buffer.
	Load(i int, dst *block.Block) error
}

// LevelSource adapts a level as the X side of a merge, exposing the block
// window [From, To).
type LevelSource struct {
	Level *level.Level
}

// NumBlocks returns the number of blocks in the level.
func (s LevelSource) NumBlocks() int { return s.Level.Blocks() }

// Meta returns the i-th block's metadata.
func (s LevelSource) Meta(i int) btree.BlockMeta { return s.Level.Index().Meta(i) }

// Load reads the i-th block into dst (counted).
func (s LevelSource) Load(i int, dst *block.Block) error {
	return s.Level.ReadAt(i, dst)
}

// RecordSource chunks a flat key-ordered record slice (drained from L0)
// into virtual blocks of the given capacity.
type RecordSource struct {
	recs     []block.Record
	capacity int
	metas    []btree.BlockMeta
}

// NewRecordSource builds a RecordSource over recs, which must be sorted by
// key and free of duplicates.
func NewRecordSource(recs []block.Record, capacity int) *RecordSource {
	if capacity < 1 {
		panic("merge: record source capacity must be >= 1")
	}
	s := &RecordSource{recs: recs, capacity: capacity}
	for off := 0; off < len(recs); off += capacity {
		end := off + capacity
		if end > len(recs) {
			end = len(recs)
		}
		m := btree.BlockMeta{Min: recs[off].Key, Max: recs[end-1].Key, Count: end - off}
		for _, r := range recs[off:end] {
			if r.Tombstone {
				m.Tombstones++
			}
		}
		s.metas = append(s.metas, m)
	}
	return s
}

// NumBlocks returns the number of virtual blocks.
func (s *RecordSource) NumBlocks() int { return len(s.metas) }

// Meta returns the i-th virtual block's metadata (ID 0: not preservable).
func (s *RecordSource) Meta(i int) btree.BlockMeta { return s.metas[i] }

// Load encodes the i-th virtual block's records into dst without any I/O.
func (s *RecordSource) Load(i int, dst *block.Block) error {
	off := i * s.capacity
	end := min(off+s.capacity, len(s.recs))
	dst.Reset()
	for _, r := range s.recs[off:end] {
		dst.Append(r)
	}
	return nil
}

// BlockSource serves in-memory blocks that no device holds (a tiered
// level's runs folded into one stream) as virtual blocks.
type BlockSource struct {
	blocks []*block.Block
	metas  []btree.BlockMeta
}

// NewBlockSource builds a BlockSource over blocks, which must be in key
// order with disjoint ranges.
func NewBlockSource(blocks []*block.Block) *BlockSource {
	s := &BlockSource{blocks: blocks, metas: make([]btree.BlockMeta, len(blocks))}
	for i, b := range blocks {
		s.metas[i] = btree.MetaFor(0, b)
	}
	return s
}

// NumBlocks returns the number of virtual blocks.
func (s *BlockSource) NumBlocks() int { return len(s.blocks) }

// Meta returns the i-th virtual block's metadata (ID 0: not preservable).
func (s *BlockSource) Meta(i int) btree.BlockMeta { return s.metas[i] }

// Load copies the i-th block into dst without any I/O.
func (s *BlockSource) Load(i int, dst *block.Block) error {
	dst.CopyFrom(s.blocks[i])
	return nil
}
