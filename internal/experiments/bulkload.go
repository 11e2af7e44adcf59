package experiments

import (
	"fmt"
	"sort"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/core"
	"lsmssd/internal/workload"
)

// bulkLoad fills an empty tree to the target size by drawing the fill
// prefix of the workload (insert-dominated under a pinned target) and
// building the bottom level directly, instead of pushing every fill
// request through the merge machinery.
//
// The paper grows each index with inserts and then waits until at least a
// full second-to-last level of data has merged into the bottom; the
// waiting step (growAndSettle's settle phase, unchanged) is what
// establishes the steady-state level distribution, so short-circuiting
// the fill changes only how fast an experiment reaches its measured
// state. Blocks written during loading are counted, and every measurement
// window subtracts them: it reads the device counters when it opens.
func bulkLoad(tree *core.Tree, gen workload.Generator, targetRecords int) error {
	content := make(map[block.Key][]byte, targetRecords)
	guard := 0
	for gen.Indexed() < targetRecords {
		req, ok := gen.Next()
		if !ok {
			guard++
			if guard > 1000 {
				return fmt.Errorf("experiments: generator stalled during bulk load")
			}
			continue
		}
		guard = 0
		// Scans are read-only and skipped: during bulk load there is
		// nothing to read yet.
		switch req.Op {
		case workload.Insert:
			content[req.Key] = req.Payload
		case workload.Delete:
			delete(content, req.Key)
		}
	}

	keys := make([]block.Key, 0, len(content))
	for k := range content {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Give the tree the height it would have grown to: the smallest h
	// whose bottom level can hold the dataset.
	cfg := tree.Config()
	needBlocks := (len(keys) + cfg.BlockCapacity - 1) / cfg.BlockCapacity
	for tree.CapacityBlocks(tree.Height()-1) <= needBlocks {
		tree.ForceGrow()
	}

	bottom := tree.Level(tree.Height() - 1)
	builder := block.NewBuilder(cfg.BlockCapacity)
	var metas []btree.BlockMeta
	flushBlocks := func() error {
		for _, blk := range builder.Finish() {
			m, err := bottom.WriteNew(blk)
			if err != nil {
				return err
			}
			metas = append(metas, m)
		}
		builder = block.NewBuilder(cfg.BlockCapacity)
		return nil
	}
	for i, k := range keys {
		builder.Add(block.Record{Key: k, Payload: content[k]})
		if (i+1)%(cfg.BlockCapacity*1024) == 0 {
			if err := flushBlocks(); err != nil {
				return err
			}
		}
	}
	if err := flushBlocks(); err != nil {
		return err
	}
	return bottom.ReplaceRange(0, 0, metas, nil)
}
