package lsmssd

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// statsStore builds what the benchmark polls Stats on: a file-backed store
// of 200k keys with the WAL, Bloom filters and
// latency recording on (the traced runs' configuration), drained.
func statsStore(tb testing.TB, shards int) *DB {
	tb.Helper()
	db, err := Open(Options{
		Path:            filepath.Join(tb.TempDir(), "store.blk"),
		Shards:          shards,
		WAL:             WALOptions{Sync: SyncNever},
		BloomBitsPerKey: 10,
		Metrics:         true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	value := make([]byte, 64)
	for i := uint64(0); i < 200_000; i++ {
		if err := db.Put(i*2654435761%(1<<40), value); err != nil {
			tb.Fatal(err)
		}
	}
	for deadline := time.Now().Add(time.Minute); db.Stats().Compaction.QueueDepth > 0; {
		if time.Now().After(deadline) {
			tb.Fatal("compaction did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	return db
}

// The benchmark polls Stats every millisecond while it drains a store and
// every 5 ms in traced runs, so its cost is part of what the benchmark
// measures. TestStatsAllocs pins the allocation count per call (13 and 24 on
// this store before the counters got their one table); the time is
// BenchmarkStats (go test -run '^$' -bench Stats -benchtime 300000x -cpu 2 .).
var statsAllocCeiling = map[int]float64{1: 6, 4: 12}

func TestStatsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 200k-key stores")
	}
	for _, shards := range []int{1, 4} {
		db := statsStore(t, shards)
		got := testing.AllocsPerRun(200, func() { db.Stats() })
		if got > statsAllocCeiling[shards] {
			t.Errorf("Shards=%d: Stats() allocates %.0f times a call, ceiling %.0f", shards, got, statsAllocCeiling[shards])
		}
	}
}

func BenchmarkStats(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db := statsStore(b, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if db.Stats().Height == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}
