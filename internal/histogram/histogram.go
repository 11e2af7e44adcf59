// Package histogram builds key-distribution histograms of LSM-tree levels,
// the diagnostic behind the paper's Figure 1 (the skewed L1 distribution
// that explains why round-robin partial merges beat full merges even on
// uniform workloads). All reads bypass the traffic counters.
package histogram

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/core"
)

// ViewLevel counts the keys of storage level `level` (1-based) into n
// equal buckets over [0, keySpace), reading from an acquired snapshot
// rather than the live tree, so histograms never block or race with the
// writer.
func ViewLevel(v *core.View, level int, keySpace uint64, n int) ([]int, error) {
	if level < 1 || level >= v.Height() {
		return nil, fmt.Errorf("histogram: level %d out of range [1,%d)", level, v.Height())
	}
	counts := make([]int, n)
	lv := v.Levels()[level-1]
	var blk block.Block
	for _, metas := range lv.Runs {
		for _, m := range metas {
			if err := v.PeekBlock(m.ID, &blk); err != nil {
				return nil, err
			}
			c := blk.Cursor()
			for r, ok := c.Next(); ok; r, ok = c.Next() {
				counts[bucket(r.Key, keySpace, n)]++
			}
		}
	}
	return counts, nil
}

// Normalize converts counts to frequencies summing to 1 (all zeros when
// the level is empty).
func Normalize(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

func bucket(k block.Key, keySpace uint64, n int) int {
	b := int(uint64(k) / ((keySpace + uint64(n) - 1) / uint64(n)))
	if b >= n {
		b = n - 1
	}
	return b
}
