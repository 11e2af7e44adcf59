// Package layers times each engine layer's public functions directly,
// with inputs shaped like the benchmark's workloads: 100-byte values, 32
// records per block, a 256-block memtable, and index sizes taken from the
// tree the workload loaded. The numbers are the per-layer rows of the cost
// budget; they carry no regression bound.
package layers

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"lsmssd"
	"lsmssd/internal/block"
	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
	"lsmssd/internal/cache"
	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/level"
	"lsmssd/internal/memtable"
	"lsmssd/internal/merge"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

const (
	valueLen        = 100
	recordsPerBlock = 32
	blockSize       = 4096
	memtableBlocks  = 256
	memtableRecords = memtableBlocks * recordsPerBlock
	bloomBits       = 10
	cacheBlocks     = 341
	delta           = 0.07 // the 7/100 below
	keyMask         = 1<<40 - 1
	treeRecords     = 100_000 // records in the in-memory trees the router replays use
)

// Shape carries what the replays take from the loaded store.
type Shape struct {
	IndexBlocks int    // blocks in the largest level
	TempDir     string // for the write-ahead log replays
}

// cost is one replay's result per unit of work.
type cost struct{ ns, allocs, bytes float64 }

// measure calls run with growing n until one call lasts at least target,
// and reports that call's cost per unit. run returns the units of work it
// did (0 means n). A target of 0 runs a single iteration.
func measure(target time.Duration, run func(n int) int) cost {
	for n := 1; ; n *= 4 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		units := run(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if d >= target || n >= 1<<28 {
			if units == 0 {
				units = n
			}
			u := float64(units)
			return cost{
				ns:     float64(d.Nanoseconds()) / u,
				allocs: float64(m1.Mallocs-m0.Mallocs) / u,
				bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / u,
			}
		}
	}
}

// Run executes every replay for about target each and returns the metrics
// by name. A target of 0 runs one iteration of each (the harness test).
func Run(sh Shape, target time.Duration) (out map[string]float64, err error) {
	// Replays call engine code that panics only on a harness bug; report it
	// as an error so the benchmark exits with a message, not a stack.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layers: replay panicked: %v", r)
		}
	}()
	if sh.IndexBlocks < 64 {
		sh.IndexBlocks = 64
	}
	out = make(map[string]float64)
	r := rand.New(rand.NewSource(1))
	val := make([]byte, valueLen)
	for i := range val {
		val[i] = 'v'
	}
	randKey := func() block.Key { return block.Key(r.Uint64() & keyMask) }

	// block
	recs := make([]block.Record, recordsPerBlock)
	for i := range recs {
		recs[i] = block.Record{Key: block.Key(i * 1000), Payload: val}
	}
	blk := block.New(recs)
	buf := make([]byte, blockSize)
	c := measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			must(blk.Encode(buf, blockSize))
		}
		return 0
	})
	out["block.encode_ns"] = c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, derr := block.Decode(buf)
			must(derr)
		}
		return 0
	})
	out["block.decode_ns"], out["block.decode_allocs"] = c.ns, c.allocs
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			bb := block.NewBuilder(recordsPerBlock)
			for _, rec := range recs {
				bb.Add(rec)
			}
			bb.Finish()
		}
		return n * recordsPerBlock
	})
	out["block.build_ns_per_rec"] = c.ns

	// bloom
	keys := make([]block.Key, recordsPerBlock)
	for i := range keys {
		keys[i] = recs[i].Key
	}
	filter := bloom.NewFilter(keys, bloomBits)
	out["bloom.mem_bits_per_key"] = float64(filter.SizeBits()) / recordsPerBlock
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			bloom.NewFilter(keys, bloomBits)
		}
		return n * recordsPerBlock
	})
	out["bloom.build_ns_per_key"] = c.ns
	sink := false
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			sink = filter.MayContain(block.Key(i)) != sink
		}
		return 0
	})
	out["bloom.may_contain_ns"] = c.ns

	// memtable: one table per 8192 puts, as between two flushes
	c = measure(target, func(n int) int {
		var t *memtable.Table
		for i := 0; i < n; i++ {
			if i%memtableRecords == 0 {
				t = memtable.New(1)
			}
			t.Put(block.Record{Key: randKey(), Payload: val})
		}
		return 0
	})
	out["memtable.put_ns"], out["memtable.put_allocs"] = c.ns, c.allocs
	table := memtable.New(1)
	tkeys := make([]block.Key, memtableRecords)
	for i := range tkeys {
		tkeys[i] = randKey()
		table.Put(block.Record{Key: tkeys[i], Payload: val})
	}
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, ok := table.Get(tkeys[i%len(tkeys)])
			sink = sink != ok
		}
		return 0
	})
	out["memtable.get_ns"] = c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			sink = sink != (table.Snapshot().Len() > 0)
		}
		return 0
	})
	out["memtable.snapshot_ns"] = c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			table.Ascend(0, keyMask, func(block.Record) bool { return true })
		}
		return n * table.Len()
	})
	out["memtable.ascend_ns_per_rec"] = c.ns

	// wal: single-op frames as Put logs them. SyncNever isolates the
	// append; the second replay adds an explicit fsync per frame.
	for _, synced := range []bool{false, true} {
		base := filepath.Join(sh.TempDir, fmt.Sprintf("replay-wal-%v", synced), "log")
		if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
			return nil, err
		}
		l, err := wal.Open(base, 1, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		ops := []wal.Op{{Key: 1, Value: val}}
		c = measure(target, func(n int) int {
			for i := 0; i < n; i++ {
				ops[0].Key = uint64(i)
				_, _, aerr := l.Append(ops)
				must(aerr)
				if synced {
					must(l.Sync())
				}
			}
			return 0
		})
		if synced {
			out["wal.sync_ns"] = max(c.ns-out["wal.append_ns"], 0)
		} else {
			out["wal.append_ns"], out["wal.append_allocs"], out["wal.append_bytes"] = c.ns, c.allocs, c.bytes
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(filepath.Dir(base)); err != nil {
			return nil, err
		}
	}

	// level / btree / cache / merge over one level of the loaded tree's size
	dev := storage.NewMemDevice()
	lvl := level.New(level.Config{Device: dev, BlockCapacity: recordsPerBlock, Epsilon: 0.2,
		Capacity: sh.IndexBlocks * 2, Blooms: bloom.NewRegistry(bloomBits)})
	stride := uint64(keyMask) / uint64(sh.IndexBlocks*recordsPerBlock)
	metas := make([]btree.BlockMeta, 0, sh.IndexBlocks)
	for b := 0; b < sh.IndexBlocks; b++ {
		rs := make([]block.Record, recordsPerBlock)
		for i := range rs {
			rs[i] = block.Record{Key: block.Key(uint64(b*recordsPerBlock+i) * stride), Payload: val}
		}
		m, err := lvl.WriteNew(block.New(rs))
		if err != nil {
			return nil, err
		}
		metas = append(metas, m)
	}
	must(lvl.ReplaceRange(0, 0, metas, nil))
	present := func() block.Key {
		return block.Key(uint64(r.Intn(sh.IndexBlocks*recordsPerBlock)) * stride)
	}
	idx := lvl.Index()
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, ok := idx.Find(present())
			sink = sink != ok
		}
		return 0
	})
	out["btree.find_ns"] = c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, ok, gerr := lvl.Get(present())
			must(gerr)
			sink = sink != ok
		}
		return 0
	})
	out["level.get_ns"] = c.ns

	// A cache a quarter of the level: reading its first half hits every
	// time, cycling through the whole level misses every time.
	capacity := min(cacheBlocks, len(metas)/4)
	ch := cache.New(dev, capacity)
	hot := metas[:capacity/2]
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, rerr := ch.Read(hot[i%len(hot)].ID)
			must(rerr)
		}
		return 0
	})
	out["cache.read_hit_ns"], out["cache.read_hit_allocs"] = c.ns, c.allocs
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, rerr := ch.Read(metas[i%len(metas)].ID)
			must(rerr)
		}
		return 0
	})
	out["cache.read_miss_ns"] = c.ns

	// merge: δ·K0 virtual memtable blocks covering δ of the key space,
	// merged into the level above with block preservation on.
	xBlocks := memtableBlocks * 7 / 100   // δ·K0
	const span = int64(keyMask) * 7 / 100 // δ of the key space
	c = measure(target, func(n int) int {
		inputs := 0
		for i := 0; i < n; i++ {
			lo := uint64(r.Int63n(keyMask - span))
			win := make([]block.Record, xBlocks*recordsPerBlock)
			for j := range win {
				win[j] = block.Record{Key: block.Key(lo + uint64(r.Int63n(span))), Payload: val}
			}
			slices.SortFunc(win, func(a, b block.Record) int {
				if a.Key < b.Key {
					return -1
				} else if a.Key > b.Key {
					return 1
				}
				return 0
			})
			win = slices.CompactFunc(win, func(a, b block.Record) bool { return a.Key == b.Key })
			src := merge.NewRecordSource(win, recordsPerBlock)
			res, merr := merge.Merge(src, 0, src.NumBlocks(), lvl, merge.Options{Preserve: true})
			must(merr)
			inputs += src.NumBlocks() + res.YBlocks
		}
		return inputs
	})
	out["merge.ns_per_input_block"], out["merge.allocs_per_input_block"] = c.ns, c.allocs

	// core and router: the same in-memory tree reached directly and through
	// the public DB; the difference is what the router adds.
	newTree := func() (*core.Tree, error) {
		return core.New(core.Config{Device: storage.NewMemDevice(), Policy: policy.NewChooseBest(delta, true),
			BlockCapacity: recordsPerBlock, K0: memtableBlocks, CacheBlocks: cacheBlocks, BloomBitsPerKey: bloomBits})
	}
	newDB := func(shards int) (*lsmssd.DB, error) {
		return lsmssd.Open(lsmssd.Options{Shards: shards, RecordsPerBlock: recordsPerBlock,
			CacheBlocks: cacheBlocks, BloomBitsPerKey: bloomBits})
	}
	tree, err := newTree()
	if err != nil {
		return nil, err
	}
	drv := compaction.Driver{Tree: tree}
	db, err := newDB(1)
	if err != nil {
		return nil, err
	}
	db2, err := newDB(2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < treeRecords; i++ {
		must(drv.Put(block.Key(i), val))
		must(db.Put(uint64(i), val))
		must(db2.Put(uint64(i), val))
	}
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			must(drv.Put(randKey(), val))
		}
		return 0
	})
	out["core.put_ns"] = c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			must(db.Put(uint64(randKey()), val))
		}
		return 0
	})
	out["router.put_overhead_ns"] = c.ns - out["core.put_ns"]
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, _, gerr := tree.Get(block.Key(r.Intn(treeRecords)))
			must(gerr)
		}
		return 0
	})
	out["core.get_ns"] = c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			_, _, gerr := db.Get(uint64(r.Intn(treeRecords)))
			must(gerr)
		}
		return 0
	})
	out["router.get_overhead_ns"] = c.ns - out["core.get_ns"]
	const scanKeys = 100
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			lo := block.Key(r.Intn(treeRecords - scanKeys))
			must(tree.Scan(lo, lo+scanKeys-1, func(block.Key, []byte) bool { return true }))
		}
		return n * scanKeys
	})
	treeScan := c.ns
	c = measure(target, func(n int) int {
		for i := 0; i < n; i++ {
			lo := uint64(r.Intn(treeRecords - scanKeys))
			must(db2.Scan(lo, lo+scanKeys-1, func(uint64, []byte) bool { return true }))
		}
		return n * scanKeys
	})
	out["router.scan_merge_ns_per_key"] = c.ns - treeScan
	_ = sink
	return out, errors.Join(db.Close(), db2.Close())
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
