package memtable

import (
	"math/rand"
	"testing"

	"lsmssd/internal/block"
)

// full is the L0 size the benchmarks and the drain-and-refill test use:
// 8,192 records, as in a store with 256 blocks of 32 records in L0.
const full = 8192

var (
	benchVal  = make([]byte, 100)
	sinkRec   block.Record
	sinkMetas []VirtualMeta
)

// fullTable returns a table of full random keys and the keys.
func fullTable() (*Table, []block.Key) {
	rng := rand.New(rand.NewSource(7))
	m := New(1)
	keys := make([]block.Key, full)
	for i := range keys {
		keys[i] = block.Key(rng.Uint64())
		m.Put(block.Record{Key: keys[i], Payload: benchVal})
	}
	return m, keys
}

// BenchmarkPut8K fills a new table every 8,192 random-key puts, as L0
// fills between two flushes.
func BenchmarkPut8K(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var m *Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%full == 0 {
			m = New(1)
		}
		m.Put(block.Record{Key: block.Key(rng.Uint64()), Payload: benchVal})
	}
}

// BenchmarkGet8K looks up present keys in a full table.
func BenchmarkGet8K(b *testing.B) {
	m, keys := fullTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRec, _ = m.Get(keys[i%len(keys)])
	}
}

// BenchmarkVirtualBlocks8K chunks a full table into 32-record virtual
// blocks, as each L0 merge decision does once per table version.
func BenchmarkVirtualBlocks8K(b *testing.B) {
	m, _ := fullTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMetas = m.VirtualBlocks(32)
	}
}

// BenchmarkTakeRangeWindow drains a 7 % window of a full table, as an L0
// merge of 18 of 256 virtual blocks does. Each iteration takes from a copy
// of the same full table; the copy is O(1) because the table is persistent.
func BenchmarkTakeRangeWindow(b *testing.B) {
	m, _ := fullTable()
	metas := m.VirtualBlocks(32)
	const blocks = full / 32 * 7 / 100
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := rng.Intn(len(metas) - blocks)
		t := *m
		if out := t.TakeRange(metas[at].Min, metas[at+blocks-1].Max); len(out) != blocks*32 {
			b.Fatalf("took %d records, want %d", len(out), blocks*32)
		}
	}
}
