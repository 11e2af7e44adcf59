// Package btree maintains the per-level index over data blocks: the
// metadata the paper keeps in the internal nodes of each level's B+tree
// ("those immediately above the data blocks ... in practice cached in main
// memory", Section III-C).
//
// Each level of the LSM-tree is a key-ordered sequence of data blocks with
// pairwise-disjoint key ranges. The Index stores one BlockMeta (block id,
// min key, max key, record count) per data block — exactly the information
// the ChooseBest policy scans and the merge operation uses for its bulk
// deletes and inserts. Since internal nodes live in memory and are excluded
// from the paper's write accounting, the index is represented as a fence
// array with logarithmic search; bulk ReplaceRange is the only mutation, as
// in the paper's merge ("each bulk operation affects at most one key range
// per internal level").
//
// Being the lowest package that knows a run's metadata, it also holds the
// one definition of the paper's per-run constraints (Section II): the
// PairOK and WasteOK predicates the repairing code acts on, and
// ValidateMetas, the checker every validator above calls.
package btree

import (
	"fmt"
	"sort"

	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/storage"
)

// BlockMeta is the fence-key entry for one data block. Tombstones counts
// the delete records inside the block; the block-preserving merge consults
// it to refuse reusing a tombstone-carrying block in the bottom level,
// where tombstones must not survive.
//
// Filter is the block's Bloom filter, the zero Filter when the tree keeps
// none. It is built once, when the block is written (level.WriteNew) or
// read back at a restore (core.Restore), and travels with the entry: a
// preserved block keeps its filter in whatever level it lands, and a
// lookup reads it from the entry it found by fence, with no lock. It is
// not part of what the entry says about the block's contents (SameBlock),
// and it is never persisted.
type BlockMeta struct {
	ID         storage.BlockID
	Min, Max   block.Key
	Count      int // number of records in the block
	Tombstones int // number of tombstone (delete) records among them
	Filter     bloom.Filter
}

// SameBlock reports whether m and o describe the same block contents: the
// same id, fences and counts. Filters are not compared.
func (m BlockMeta) SameBlock(o BlockMeta) bool {
	return m.ID == o.ID && m.Min == o.Min && m.Max == o.Max &&
		m.Count == o.Count && m.Tombstones == o.Tombstones
}

// MetaFor builds the BlockMeta describing b stored under id.
func MetaFor(id storage.BlockID, b *block.Block) BlockMeta {
	m := BlockMeta{ID: id, Count: b.Len()}
	c := b.Cursor()
	for i := 0; ; i++ {
		r, ok := c.Next()
		if !ok {
			return m
		}
		if i == 0 {
			m.Min = r.Key
		}
		m.Max = r.Key
		if r.Tombstone {
			m.Tombstones++
		}
	}
}

// Index is the in-memory block index of one level. The zero value is an
// empty index.
type Index struct {
	metas   []BlockMeta
	records int
}

// NewIndex builds an index over the given metadata, which must be in key
// order with disjoint ranges (validated lazily via Validate).
func NewIndex(metas []BlockMeta) *Index {
	x := &Index{metas: metas}
	for _, m := range metas {
		x.records += m.Count
	}
	return x
}

// Len returns the number of data blocks in the level.
func (x *Index) Len() int { return len(x.metas) }

// Records returns the number of records across all blocks.
func (x *Index) Records() int { return x.records }

// Meta returns the metadata of the i-th block.
func (x *Index) Meta(i int) BlockMeta { return x.metas[i] }

// All exposes the metadata slice. Callers must treat it as read-only. The
// returned slice is immutable: ReplaceRange installs a freshly allocated
// slice instead of splicing in place, so a captured slice header remains a
// consistent point-in-time view even as the index keeps changing — the
// property the engine's read snapshots rely on.
func (x *Index) All() []BlockMeta { return x.metas }

// MinKey returns the smallest key in the level. Valid only when Len() > 0.
func (x *Index) MinKey() block.Key { return x.metas[0].Min }

// MaxKey returns the largest key in the level. Valid only when Len() > 0.
func (x *Index) MaxKey() block.Key { return x.metas[len(x.metas)-1].Max }

// Find returns the position of the block whose key range contains k, if
// any. This is the lookup descent through the cached internal nodes.
func (x *Index) Find(k block.Key) (int, bool) { return FindIn(x.metas, k) }

// Overlap returns the half-open range [start, end) of block positions whose
// key ranges intersect [lo, hi]. The merge operation uses this to locate Y,
// the next-level blocks overlapping the merged key range.
func (x *Index) Overlap(lo, hi block.Key) (start, end int) {
	return OverlapIn(x.metas, lo, hi)
}

// FindIn returns the position within metas of the block whose key range
// contains k, if any. It is the slice-level form of Index.Find, usable
// against the frozen metadata slices captured by read snapshots.
func FindIn(metas []BlockMeta, k block.Key) (int, bool) {
	i := lowerBound(metas, k)
	if i < len(metas) && metas[i].Min <= k {
		return i, true
	}
	return 0, false
}

// lowerBound returns the first position whose Max >= k.
func lowerBound(metas []BlockMeta, k block.Key) int {
	lo, hi := 0, len(metas)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if metas[mid].Max < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// OverlapIn returns the half-open range [start, end) of positions within
// metas whose key ranges intersect [lo, hi] — the slice-level form of
// Index.Overlap for snapshot readers.
func OverlapIn(metas []BlockMeta, lo, hi block.Key) (start, end int) {
	start = lowerBound(metas, lo) // first block with Max >= lo
	// The first block from start on with Min > hi: Min ascends, since the
	// ranges are disjoint and in key order. A binary search, so an open
	// range's bound costs O(log n), not a walk to the end of the run.
	end = start + sort.Search(len(metas)-start, func(i int) bool { return metas[start+i].Min > hi })
	return start, end
}

// ReplaceRange substitutes the blocks in positions [i, j) with repl: the
// bulk-delete of Y followed by bulk-insert of Z from the paper's merge
// operation. repl must preserve key order relative to the neighbours.
//
// ReplaceRange always builds a new metadata slice rather than splicing the
// old one, keeping every previously returned All() slice intact for
// concurrent snapshot readers. Do not "optimize" this into an in-place
// splice.
func (x *Index) ReplaceRange(i, j int, repl []BlockMeta) {
	if i < 0 || j < i || j > len(x.metas) {
		panic(fmt.Sprintf("btree: ReplaceRange [%d,%d) of %d blocks", i, j, len(x.metas)))
	}
	for _, m := range x.metas[i:j] {
		x.records -= m.Count
	}
	for _, m := range repl {
		x.records += m.Count
	}
	out := make([]BlockMeta, 0, len(x.metas)-(j-i)+len(repl))
	out = append(out, x.metas[:i]...)
	out = append(out, repl...)
	out = append(out, x.metas[j:]...)
	x.metas = out
}

// Validate checks the run's Section II constraints (see ValidateMetas) and
// that the cached record total matches the metadata.
func (x *Index) Validate(b int, epsilon float64) error {
	if err := ValidateMetas(x.metas, b, epsilon); err != nil {
		return err
	}
	total := 0
	for _, m := range x.metas {
		total += m.Count
	}
	if total != x.records {
		return fmt.Errorf("btree: cached record count %d != actual %d", x.records, total)
	}
	return nil
}

// PairOK is the pairwise waste constraint (Section II-B, constraint 2):
// two consecutive data blocks holding a and c records must together hold
// strictly more than B.
func PairOK(a, c, b int) bool { return a+c > b }

// WasteFactor returns the fraction of empty record slots across blocks
// data blocks of capacity b holding records records, or 0 for no blocks.
func WasteFactor(blocks, records, b int) float64 {
	if blocks == 0 {
		return 0
	}
	return float64(blocks*b-records) / float64(blocks*b)
}

// WasteOK is the level-wise waste constraint (Section II-B, constraint 1):
// the waste factor of a sorted run is at most ε. Runs with fewer than two
// data blocks are exempt (a single block may be arbitrarily empty), and so
// are maximally packed runs (fewer empty slots than one block): a small run
// can exceed ε even when compacted — e.g. 6 records with B=5 pack as (5,1),
// waste 0.4 — and compaction cannot improve on maximal packing.
func WasteOK(blocks, records, b int, epsilon float64) bool {
	if blocks < 2 || blocks*b-records < b {
		return true
	}
	return WasteFactor(blocks, records, b) <= epsilon
}

// ValidateMetas is the one checker of the paper's per-run constraints
// (Section II) over a frozen metadata slice, given the block capacity B
// and the waste bound ε; every validator in the repository (level.Validate,
// core's View and Tree Validate, invariant.Check) calls it and adds only
// what it alone knows. The error names the violated constraint:
//
//   - fences: every block non-empty with a valid id and Min <= Max, blocks
//     in strict key order with disjoint ranges (Section II-A);
//   - overfull: no block holds more than B records;
//   - pairwise: PairOK for every two consecutive blocks;
//   - level-wise: WasteOK for the run as a whole.
func ValidateMetas(metas []BlockMeta, b int, epsilon float64) error {
	records := 0
	for i, m := range metas {
		if m.Count <= 0 {
			return fmt.Errorf("btree: fences: block %d (id %d) empty", i, m.ID)
		}
		if m.Min > m.Max {
			return fmt.Errorf("btree: fences: block %d (id %d) has Min %d > Max %d", i, m.ID, m.Min, m.Max)
		}
		if m.ID == 0 {
			return fmt.Errorf("btree: fences: block %d has invalid id", i)
		}
		if i > 0 && metas[i-1].Max >= m.Min {
			return fmt.Errorf("btree: fences: blocks %d,%d overlap: %d >= %d", i-1, i, metas[i-1].Max, m.Min)
		}
		if m.Count > b {
			return fmt.Errorf("btree: block %d overfull: %d records > B = %d", i, m.Count, b)
		}
		records += m.Count
	}
	for i := 0; i+1 < len(metas); i++ {
		if a, c := metas[i].Count, metas[i+1].Count; !PairOK(a, c, b) {
			return fmt.Errorf("btree: pairwise waste violated at blocks %d,%d: %d+%d <= B = %d", i, i+1, a, c, b)
		}
	}
	if !WasteOK(len(metas), records, b, epsilon) {
		return fmt.Errorf("btree: level-wise waste %.3f exceeds ε = %.3f (%d empty slots over %d blocks)",
			WasteFactor(len(metas), records, b), epsilon, len(metas)*b-records, len(metas))
	}
	return nil
}
