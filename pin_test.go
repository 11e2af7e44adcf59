package lsmssd_test

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"lsmssd"
	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

// TestGetSeesOwnWriteDuringInstall: a Get that follows its caller's own
// Put sees it, even while merges install new views as fast as a 2-block L0
// lets them. A point read takes the lock-free path only when the current
// view's L0 generation matches L0's; keyed on a dirty flag instead, a Get
// landing between an install's clear of the flag and its publish would
// read the view from before the write.
func TestGetSeesOwnWriteDuringInstall(t *testing.T) {
	const writers, keysPer = 4, 16
	ops := 10000
	if testing.Short() {
		ops = 2000
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) {
			opts := smallOptions()
			opts.Shards = shards
			opts.BloomBitsPerKey = 10
			db, err := lsmssd.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 1; i <= ops; i++ {
						k := uint64((i%keysPer)*writers + w) // no other writer's key
						want := strconv.Itoa(i)
						if err := db.Put(k, []byte(want)); err != nil {
							t.Error(err)
							return
						}
						got, ok, err := db.Get(k)
						if err != nil || !ok || string(got) != want {
							t.Errorf("writer %d: Get(%d) after Put(%d, %s) = %q, %v, %v", w, k, k, want, got, ok, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if st := db.Stats(); st.Merges == 0 {
				t.Fatal("no merge ran: nothing installed beside the reads")
			}
		})
	}
}

// readCounter counts a device's counted reads on one plain atomic, beside
// the device's own striped counter.
type readCounter struct {
	storage.Device
	n *atomic.Int64
}

func (d readCounter) ReadInto(id storage.BlockID, dst *block.Block) error {
	d.n.Add(1)
	return d.Device.ReadInto(id, dst)
}

// TestReadCountersExactUnderStriping: the read-side counters are striped,
// one cell per goroutine, and summed when read; a pass of Gets spread over
// 8 goroutines must count exactly what the same pass counts from one. On a
// drained store with no cache every filter that passes costs one device
// read, which the wrapper counts on its own.
func TestReadCountersExactUnderStriping(t *testing.T) {
	const keys = 4000
	var devReads atomic.Int64
	opts := smallOptions()
	opts.Shards = 2
	opts.BloomBitsPerKey = 10
	opts.DeviceWrap = func(_ int, dev storage.Device) storage.Device {
		return readCounter{Device: dev, n: &devReads}
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < keys; k += 2 { // even keys present, odd absent
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	type tally struct{ lookups, probes, passed, blocksRead, devReads int64 }
	pass := func(goroutines int) tally {
		t.Helper()
		a, r0 := db.Stats(), devReads.Load()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := uint64(g); k < keys; k += uint64(goroutines) {
					if _, ok, err := db.Get(k); err != nil || ok != (k%2 == 0) {
						t.Errorf("Get(%d) = %v, %v", k, ok, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		b := db.Stats()
		return tally{
			lookups:    b.Lookups - a.Lookups,
			probes:     b.BloomSkipped + b.BloomPassed - a.BloomSkipped - a.BloomPassed,
			passed:     b.BloomPassed - a.BloomPassed,
			blocksRead: b.BlocksRead - a.BlocksRead,
			devReads:   devReads.Load() - r0,
		}
	}
	one := pass(1)
	eight := pass(8)
	if one.lookups != keys || one.probes == 0 || one.blocksRead != one.passed || one.devReads != one.blocksRead {
		t.Fatalf("one goroutine: %+v; want %d lookups, some probes, one read per passed probe", one, keys)
	}
	if eight != one {
		t.Fatalf("8 goroutines counted %+v, one counted %+v", eight, one)
	}
}
