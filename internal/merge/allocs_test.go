package merge

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
	"lsmssd/internal/level"
	"lsmssd/internal/storage"
)

// mergeAllocCeiling bounds a merge's allocations per input block (source
// plus overlapped target blocks) in the shape the benchmark's merge row
// replays: 36-record blocks of 100-byte values, Bloom filters on, block
// preservation on. This test reads 2.96; with decoded record slices, a
// copied output block and a filter built from a key list it read 5.29
// (the benchmark's row, which also counts building the window, about 4.6).
// What remains per output block is the MemDevice's copy and the filter's
// bits; per merge, the result maps, the new index slice and the reused
// buffers' first growth.
const mergeAllocCeiling = 3.5

func TestMergeAllocsPerInputBlock(t *testing.T) {
	const recs = 36
	val := bytes.Repeat([]byte{7}, 100)
	dev := storage.NewMemDevice()
	lvl := level.New(level.Config{Device: dev, BlockCapacity: recs, Epsilon: 0.2,
		Capacity: 1 << 20, Blooms: bloom.NewRegistry(10)})
	const blocks, stride = 256, 1000
	var metas []btree.BlockMeta
	for b := 0; b < blocks; b++ {
		rs := make([]block.Record, recs)
		for i := range rs {
			rs[i] = block.Record{Key: block.Key((b*recs + i) * stride), Payload: val}
		}
		m, err := lvl.WriteNew(block.New(rs))
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	if err := lvl.ReplaceRange(0, 0, metas, nil); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	const merges, xBlocks = 40, 6
	span := int64(blocks * recs * stride / 14)
	srcs := make([]*RecordSource, merges)
	for i := range srcs {
		lo := r.Int63n(blocks*recs*stride - span)
		win := make([]block.Record, xBlocks*recs)
		for j := range win {
			win[j] = block.Record{Key: block.Key(lo + r.Int63n(span)), Payload: val}
		}
		slices.SortFunc(win, func(a, b block.Record) int { return int(a.Key) - int(b.Key) })
		win = slices.CompactFunc(win, func(a, b block.Record) bool { return a.Key == b.Key })
		srcs[i] = NewRecordSource(win, recs)
	}
	var m0, m1 runtime.MemStats
	inputs := 0
	runtime.ReadMemStats(&m0)
	for _, src := range srcs {
		res, err := Merge(src, 0, src.NumBlocks(), lvl, Options{Preserve: true})
		if err != nil {
			t.Fatal(err)
		}
		inputs += src.NumBlocks() + res.YBlocks
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.Mallocs-m0.Mallocs) / float64(inputs)
	t.Logf("%.2f allocations per input block over %d merges, %d input blocks", per, merges, inputs)
	if per > mergeAllocCeiling {
		t.Fatalf("a merge allocates %.2f times per input block, want at most %.1f", per, mergeAllocCeiling)
	}
}
