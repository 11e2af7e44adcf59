// Package level implements one on-storage level of the LSM-tree under the
// paper's relaxed storage requirements (Section II-B).
//
// Unlike the classic LSM-tree, a level's data blocks need not sit at
// contiguous physical addresses and need not be full. Waste is bounded by
// two constraints:
//
//   - level-wise: the fraction of empty record slots across the level's
//     data blocks is at most ε (default 0.2) for levels with at least two
//     blocks;
//   - pairwise: any two consecutive data blocks store strictly more than B
//     records in total.
//
// The level also carries the slack accounting used by the block-preserving
// merge: each merge into the level may add at most ⌊ε·|X|·B⌋ net empty
// slots, where |X| is the number of source blocks merged; unused slack
// carries over until the next compaction.
package level

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
	"lsmssd/internal/storage"
)

// Level is one storage-resident level (L1 and below).
type Level struct {
	dev      storage.Device
	idx      *btree.Index
	b        int             // block capacity B in records
	epsilon  float64         // maximum waste factor ε
	capacity int             // level capacity K_i in blocks
	blooms   *bloom.Registry // optional: builds each written block's filter

	// Slack accounting for block preservation (Section II-B): allowance
	// accumulates ⌊ε·|X|·B⌋ per merge since the last compaction; used is
	// w, the cumulative net increase in empty slots.
	slackAllowance int
	slackUsed      int

	// Cumulative write accounting for this level (blocks written by
	// merges into it, pairwise repairs, and compactions), the series
	// plotted per level in the paper's Figures 3 and 4.
	BlocksWritten int64
	Compactions   int64

	// Warned latches the tree's early waste warning for this level: set
	// when the warning fires, cleared once the waste factor drops back.
	Warned bool
}

// Config carries the immutable parameters of a level.
type Config struct {
	Device        storage.Device
	BlockCapacity int     // B, records per block
	Epsilon       float64 // ε, maximum waste factor
	Capacity      int     // K_i, level capacity in blocks
	// Blooms, when non-nil, builds a Bloom filter into the metadata of
	// every block the level writes, to skip reads for absent keys (shared
	// across the tree's levels, which share its bits per key and counts).
	Blooms *bloom.Registry
}

// New returns an empty level.
func New(cfg Config) *Level {
	if cfg.BlockCapacity < 1 {
		panic("level: block capacity must be >= 1")
	}
	return &Level{
		dev:      cfg.Device,
		idx:      btree.NewIndex(nil),
		b:        cfg.BlockCapacity,
		epsilon:  cfg.Epsilon,
		capacity: cfg.Capacity,
		blooms:   cfg.Blooms,
	}
}

// Clone returns a copy of the level that changes independently of l: the
// tree runs a merge step against copies, so the levels it started from stay
// intact until the step installs, and stay as they were if it fails. The
// copy shares l's device and metadata slice (filters included), which ReplaceRange
// never modifies in place.
func (l *Level) Clone() *Level {
	c := *l
	idx := *l.idx
	c.idx = &idx
	return &c
}

// Index exposes the level's block index (read-only use by policies).
func (l *Level) Index() *btree.Index { return l.idx }

// Blocks returns the number of data blocks currently in the level.
func (l *Level) Blocks() int { return l.idx.Len() }

// Records returns the number of records currently in the level.
func (l *Level) Records() int { return l.idx.Records() }

// Capacity returns K_i, the level capacity in blocks.
func (l *Level) Capacity() int { return l.capacity }

// SetCapacity updates K_i (used when the tree grows a level and existing
// levels are relabelled).
func (l *Level) SetCapacity(k int) { l.capacity = k }

// BlockCapacity returns B.
func (l *Level) BlockCapacity() int { return l.b }

// RequiredBlocks returns the number of blocks needed to store the level's
// records compactly: ⌈records/B⌉. The paper measures level size — and
// therefore overflow — in required blocks.
func (l *Level) RequiredBlocks() int {
	return (l.idx.Records() + l.b - 1) / l.b
}

// Full reports whether the level has reached its capacity, triggering a
// merge into the next level.
func (l *Level) Full() bool { return l.RequiredBlocks() >= l.capacity }

// WasteFactor returns the fraction of empty slots across the level's data
// blocks, or 0 for an empty level.
func (l *Level) WasteFactor() float64 {
	return btree.WasteFactor(l.idx.Len(), l.idx.Records(), l.b)
}

// WasteOK reports whether the level-wise waste constraint holds
// (btree.WasteOK, including its two exemptions).
func (l *Level) WasteOK() bool {
	return btree.WasteOK(l.idx.Len(), l.idx.Records(), l.b, l.epsilon)
}

// PairOK reports whether the pairwise waste constraint holds between the
// blocks at positions i and i+1.
func (l *Level) PairOK(i int) bool {
	return btree.PairOK(l.idx.Meta(i).Count, l.idx.Meta(i+1).Count, l.b)
}

// ReadAt loads the data block at position i into dst, counting a device
// read.
func (l *Level) ReadAt(i int, dst *block.Block) error {
	return l.dev.ReadInto(l.idx.Meta(i).ID, dst)
}

// PeekAt loads the data block at position i into dst without traffic
// accounting.
func (l *Level) PeekAt(i int, dst *block.Block) error {
	return l.dev.Peek(l.idx.Meta(i).ID, dst)
}

// WriteNew allocates and writes a fresh data block, returning its metadata
// with the block's Bloom filter built in when the level keeps filters. It
// counts one block write against this level. Neither the device nor the
// level keeps b, so a merge may refill it once WriteNew returns.
func (l *Level) WriteNew(b *block.Block) (btree.BlockMeta, error) {
	id := l.dev.Alloc()
	if err := l.dev.Write(id, b); err != nil {
		return btree.BlockMeta{}, err
	}
	l.BlocksWritten++
	m := btree.MetaFor(id, b)
	if l.blooms != nil {
		m.Filter = l.blooms.Build(b)
	}
	return m, nil
}

// ReplaceRange performs the bulk-delete of positions [i, j) and bulk-insert
// of repl, freeing the removed device blocks except those whose IDs appear
// in keep (blocks preserved by a block-preserving merge keep their storage).
// A removed block's Bloom filter stays registered: whoever frees the block
// for good drops it, since snapshot readers may still consult it.
func (l *Level) ReplaceRange(i, j int, repl []btree.BlockMeta, keep map[storage.BlockID]bool) error {
	for _, m := range l.idx.All()[i:j] {
		if keep[m.ID] {
			continue
		}
		if err := l.dev.Free(m.ID); err != nil {
			return err
		}
	}
	l.idx.ReplaceRange(i, j, repl)
	return nil
}

// Slack accounting -----------------------------------------------------

// GrantSlack credits the allowance for a merge of xBlocks source blocks:
// ⌊ε·xBlocks·B⌋ additional empty slots may be introduced.
func (l *Level) GrantSlack(xBlocks int) {
	l.slackAllowance += int(l.epsilon * float64(xBlocks) * float64(l.b))
}

// SlackLimit returns the running bound on slackUsed during a merge: the
// paper's m·⌊εδK_iB⌋ − B + 1 (generalized to variable merge sizes).
func (l *Level) SlackLimit() int { return l.slackAllowance - l.b + 1 }

// SlackUsed returns w, the cumulative net increase in empty slots since
// the last compaction.
func (l *Level) SlackUsed() int { return l.slackUsed }

// AddSlackUsed adjusts w by d (negative when merges consume slack).
func (l *Level) AddSlackUsed(d int) { l.slackUsed += d }

// Repairs ---------------------------------------------------------------

// RepairPair enforces the pairwise constraint between positions i and i+1
// by replacing the two blocks with a single block holding their combined
// contents (one extra write), as in cases 1 and 3 of the paper's merge
// operation. It reports whether a repair was performed.
func (l *Level) RepairPair(i int) (bool, error) {
	if i < 0 || i+1 >= l.idx.Len() || l.PairOK(i) {
		return false, nil
	}
	// The combined block fits in one block: the violated constraint says
	// the counts sum to <= B. Each input is read into the same buffer and
	// its records appended to the output before the next read.
	var in, out block.Block
	out.Reset()
	for _, pos := range [2]int{i, i + 1} {
		if err := l.ReadAt(pos, &in); err != nil {
			return false, err
		}
		c := in.Cursor()
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			out.Append(r)
		}
	}
	meta, err := l.WriteNew(&out)
	if err != nil {
		return false, err
	}
	if err := l.ReplaceRange(i, i+2, []btree.BlockMeta{meta}, nil); err != nil {
		return false, err
	}
	return true, nil
}

// RepairRange enforces the pairwise constraint for pairs with left
// position in [lo-1, hi] (clamped), cascading when a repair creates a new
// violation next door. Each repair writes one block and removes one, so
// the loop terminates. It returns the number of repair writes.
func (l *Level) RepairRange(lo, hi int) (int, error) {
	repairs := 0
	i := lo - 1
	if i < 0 {
		i = 0
	}
	for i+1 < l.idx.Len() && i <= hi {
		if !l.PairOK(i) {
			if _, err := l.RepairPair(i); err != nil {
				return repairs, err
			}
			repairs++
			if i > 0 {
				i--
			}
		} else {
			i++
		}
	}
	return repairs, nil
}

// MaybeCompact rewrites the level compactly in one pass if the level-wise
// waste constraint is violated (cases 2 and 4). It returns the number of
// blocks written (0 when no compaction was needed).
func (l *Level) MaybeCompact() (int, error) {
	if l.WasteOK() {
		return 0, nil
	}
	return l.Compact()
}

// Compact rewrites every record of the level into freshly packed blocks
// and resets the slack accounting. It returns the number of blocks
// written.
func (l *Level) Compact() (int, error) {
	n := l.idx.Len()
	builder := block.NewBuilder(l.b)
	var blk block.Block
	for i := 0; i < n; i++ {
		if err := l.ReadAt(i, &blk); err != nil {
			return 0, err
		}
		c := blk.Cursor()
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			builder.Add(r)
		}
	}
	blocks := builder.Finish()
	metas := make([]btree.BlockMeta, 0, len(blocks))
	for _, nb := range blocks {
		m, err := l.WriteNew(nb)
		if err != nil {
			return 0, err
		}
		metas = append(metas, m)
	}
	if err := l.ReplaceRange(0, n, metas, nil); err != nil {
		return 0, err
	}
	l.slackAllowance = 0
	l.slackUsed = 0
	l.Compactions++
	return len(blocks), nil
}

// Validate checks the level's Section II constraints — fences, block
// capacity, pairwise and level-wise waste (btree.ValidateMetas) — and the
// index's cached totals.
func (l *Level) Validate() error {
	return l.idx.Validate(l.b, l.epsilon)
}

// ValidateContents additionally checks every stored block against its fence
// metadata — record count, key range, tombstone count — and its records'
// internal order (diagnostic; uses Peek so accounting is unaffected).
func (l *Level) ValidateContents() error {
	if err := l.Validate(); err != nil {
		return err
	}
	var blk block.Block
	for i, m := range l.idx.All() {
		if err := l.dev.Peek(m.ID, &blk); err != nil {
			return fmt.Errorf("level: block %d (id %d) unreadable: %w", i, m.ID, err)
		}
		c := blk.Cursor()
		prev, _ := c.Next()
		for k := 1; ; k++ {
			r, ok := c.Next()
			if !ok {
				break
			}
			if prev.Key >= r.Key {
				return fmt.Errorf("level: block %d records out of order at %d: %d >= %d", i, k, prev.Key, r.Key)
			}
			prev = r
		}
		if got := btree.MetaFor(m.ID, &blk); !got.SameBlock(m) {
			return fmt.Errorf("level: block %d stale fence pointer: meta %+v vs contents %+v", i, m, got)
		}
	}
	return nil
}
