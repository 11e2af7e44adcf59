package merge

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/storage"
)

// Options configures one merge execution.
type Options struct {
	// Preserve enables the block-preserving optimization: input blocks
	// whose key range contains no record from the other input may be
	// reused unmodified in the output, subject to the waste checks.
	Preserve bool
	// DropTombstones is set when the target is the bottom level: delete
	// records have nothing below them left to cancel and are discarded.
	DropTombstones bool
}

// Result reports what a merge did. Block writes are also visible in the
// device counters; the split here feeds the per-level cost accounting.
type Result struct {
	BlocksWritten    int // fresh output blocks written
	PreservedX       int // source blocks reused unmodified
	PreservedY       int // target blocks reused unmodified
	RepairWrites     int // pairwise-constraint repair writes (cases 1 & 3)
	CompactionWrites int // level compaction writes (cases 2 & 4)
	RecordsIn        int // records consumed from the source window
	YBlocks          int // target blocks overlapped by the window
	// KeepSource lists source block IDs now owned by the target level;
	// the caller must not free them when removing X from the source.
	KeepSource map[storage.BlockID]bool
}

// Merge merges the source block window [xFrom, xTo) into tgt, replacing
// the overlapping target blocks Y with the merged output Z, enforcing the
// waste constraints (with repairs and compaction as needed), and returning
// the accounting. The caller is responsible for removing the window from
// the source level afterwards, honouring Result.KeepSource.
func Merge(src Source, xFrom, xTo int, tgt *level.Level, opts Options) (Result, error) {
	res := Result{KeepSource: make(map[storage.BlockID]bool)}
	if xFrom < 0 || xTo > src.NumBlocks() || xFrom >= xTo {
		return res, fmt.Errorf("merge: bad window [%d,%d) of %d blocks", xFrom, xTo, src.NumBlocks())
	}
	b := tgt.BlockCapacity()
	xmin := src.Meta(xFrom).Min
	xmax := src.Meta(xTo - 1).Max
	yStart, yEnd := tgt.Index().Overlap(xmin, xmax)
	res.YBlocks = yEnd - yStart

	// Slack accounting for block preservation (Section II-B): this merge
	// may introduce up to ⌊ε·|X|·B⌋ net empty slots; unused slack from
	// earlier merges carries over.
	wBase := tgt.SlackUsed()
	tgt.GrantSlack(xTo - xFrom)
	limit := tgt.SlackLimit()
	if limit < 0 {
		// The paper's bound m·⌊εδK_iB⌋ − B + 1 assumes δK_iB "easily in
		// the hundreds"; for very small merges it goes negative and
		// would forbid even preservation that introduces no waste at
		// all. Flooring at zero keeps the amortized guarantee (each
		// merge's inherent final partial block contributes at most B−1
		// slots regardless of preservation) while letting waste-free
		// reuse through.
		limit = 0
	}

	var (
		zMetas         []btree.BlockMeta
		keepTgt        = make(map[storage.BlockID]bool)
		buf            = make([]block.Record, 0, b)
		emittedEmpty   int  // empty slots in output blocks emitted so far
		consumedYEmpty int  // empty slots in Y blocks processed so far
		prevCount      = -1 // record count of the block preceding the output; -1: none
	)
	if yStart > 0 {
		prevCount = tgt.Index().Meta(yStart - 1).Count
	}

	// pairOK is the pairwise waste constraint; a missing neighbour passes.
	pairOK := func(a, c int) bool { return a < 0 || btree.PairOK(a, c, b) }

	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		rs := make([]block.Record, len(buf))
		copy(rs, buf)
		meta, err := tgt.WriteNew(block.New(rs))
		if err != nil {
			return err
		}
		zMetas = append(zMetas, meta)
		emittedEmpty += b - len(buf)
		prevCount = len(buf)
		res.BlocksWritten++
		buf = buf[:0]
		return nil
	}

	emit := func(r block.Record) error {
		if r.Tombstone && opts.DropTombstones {
			return nil
		}
		buf = append(buf, r)
		if len(buf) == b {
			return flush()
		}
		return nil
	}

	// tryPreserve implements the waste check guarding block reuse: the
	// pairwise constraint must hold around the buffered output block b≺
	// and the candidate, and preserving must not push the running slack
	// count w past the limit.
	tryPreserve := func(m btree.BlockMeta, fromY bool) (bool, error) {
		if !opts.Preserve || m.ID == 0 {
			return false, nil
		}
		if opts.DropTombstones && m.Tombstones > 0 {
			return false, nil
		}
		if len(buf) > 0 {
			if !pairOK(prevCount, len(buf)) || !pairOK(len(buf), m.Count) {
				return false, nil
			}
		} else if !pairOK(prevCount, m.Count) {
			return false, nil
		}
		hyp := wBase + emittedEmpty + (b - m.Count) - consumedYEmpty
		if len(buf) > 0 {
			hyp += b - len(buf)
		}
		if fromY {
			// A preserved Y block's empty slots count on both sides of
			// the running balance: they are emitted and consumed.
			hyp -= b - m.Count
		}
		if hyp > limit {
			return false, nil
		}
		if err := flush(); err != nil {
			return false, err
		}
		zMetas = append(zMetas, m)
		emittedEmpty += b - m.Count
		prevCount = m.Count
		if fromY {
			consumedYEmpty += b - m.Count
			keepTgt[m.ID] = true
			res.PreservedY++
		} else {
			res.KeepSource[m.ID] = true
			res.PreservedX++
		}
		return true, nil
	}

	// Stream state: (xi, xRecs, xPos) over the source window and
	// (yi, yRecs, yPos) over the overlapping target blocks. A nil record
	// slice means the current block has not been loaded, leaving the
	// preservation opportunity open.
	xi, yi := xFrom, yStart
	var xRecs, yRecs []block.Record
	xPos, yPos := 0, 0

	loadY := func() error {
		blk, err := tgt.ReadAt(yi)
		if err != nil {
			return err
		}
		yRecs, yPos = blk.Records(), 0
		consumedYEmpty += b - len(yRecs)
		return nil
	}
	loadX := func() error {
		rs, err := src.Records(xi)
		if err != nil {
			return err
		}
		xRecs, xPos = rs, 0
		return nil
	}

	for {
		var xk, yk block.Key
		xok, yok := false, false
		if xRecs != nil {
			xk, xok = xRecs[xPos].Key, true
		} else if xi < xTo {
			xk, xok = src.Meta(xi).Min, true
		}
		if yRecs != nil {
			yk, yok = yRecs[yPos].Key, true
		} else if yi < yEnd {
			yk, yok = tgt.Index().Meta(yi).Min, true
		}
		if !xok && !yok {
			break
		}

		switch {
		case xok && yok && xk == yk:
			// Consolidation: the newer record (from X) supersedes the
			// one in Y. Both sides must be materialized.
			if xRecs == nil {
				if err := loadX(); err != nil {
					return res, err
				}
				continue
			}
			if yRecs == nil {
				if err := loadY(); err != nil {
					return res, err
				}
				continue
			}
			if err := emit(xRecs[xPos]); err != nil {
				return res, err
			}
			res.RecordsIn++
			xPos++
			yPos++
			if xPos == len(xRecs) {
				xRecs = nil
				xi++
			}
			if yPos == len(yRecs) {
				yRecs = nil
				yi++
			}

		case xok && (!yok || xk < yk):
			if xRecs == nil {
				m := src.Meta(xi)
				if !yok || m.Max < yk {
					ok, err := tryPreserve(m, false)
					if err != nil {
						return res, err
					}
					if ok {
						res.RecordsIn += m.Count
						xi++
						continue
					}
				}
				if err := loadX(); err != nil {
					return res, err
				}
				continue
			}
			if err := emit(xRecs[xPos]); err != nil {
				return res, err
			}
			res.RecordsIn++
			xPos++
			if xPos == len(xRecs) {
				xRecs = nil
				xi++
			}

		default: // Y side next
			if yRecs == nil {
				m := tgt.Index().Meta(yi)
				if !xok || m.Max < xk {
					ok, err := tryPreserve(m, true)
					if err != nil {
						return res, err
					}
					if ok {
						yi++
						continue
					}
				}
				if err := loadY(); err != nil {
					return res, err
				}
				continue
			}
			if err := emit(yRecs[yPos]); err != nil {
				return res, err
			}
			yPos++
			if yPos == len(yRecs) {
				yRecs = nil
				yi++
			}
		}
	}
	if err := flush(); err != nil {
		return res, err
	}

	// Bulk-delete Y, bulk-insert Z (preserved Y blocks keep their
	// storage), then update the slack balance with this merge's net
	// change in empty slots.
	if err := tgt.ReplaceRange(yStart, yEnd, zMetas, keepTgt); err != nil {
		return res, err
	}
	tgt.AddSlackUsed(emittedEmpty - consumedYEmpty)

	// Case 3 (extended): enforce the pairwise constraint around the
	// edited region, cascading if a repair creates a new violation.
	lo := yStart - 1
	hi := yStart + len(zMetas)
	repairs, err := tgt.RepairRange(lo, hi)
	if err != nil {
		return res, err
	}
	res.RepairWrites += repairs

	// Case 4: compact the target if the level-wise constraint broke.
	cw, err := tgt.MaybeCompact()
	if err != nil {
		return res, err
	}
	res.CompactionWrites += cw
	return res, nil
}
