// Policies: compare the write cost of the paper's merge policies on the
// same steady-state workload — a miniature of the paper's Figure 6a.
//
// Expected shape: the partial policies (RR, ChooseBest) and Mixed write
// fewer blocks than Full; disabling block preservation (-P) never helps.
//
// Merges run on the store's compaction goroutine. The paper's cost model
// runs each request's merges before the next request, so the example waits
// for that goroutine's queue to empty after every write: the counts are
// then the paper's exact merge sequence, and the measurement window opens
// and closes with no merge in flight.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"lsmssd"
)

const (
	targetKeys = 60_000
	requests   = 600_000
	payload    = 100
)

func main() {
	fmt.Printf("%-14s %14s %12s %8s\n", "policy", "blocksWritten", "writes/1MB", "height")
	for _, cfg := range []struct {
		name       string
		policy     lsmssd.Policy
		noPreserve bool
	}{
		{"Full-P", lsmssd.Full, true},
		{"Full", lsmssd.Full, false},
		{"RR-P", lsmssd.RR, true},
		{"RR", lsmssd.RR, false},
		{"ChooseBest-P", lsmssd.ChooseBest, true},
		{"ChooseBest", lsmssd.ChooseBest, false},
		{"TestMixed", lsmssd.TestMixed, false},
	} {
		written, perMB, height := run(cfg.policy, cfg.noPreserve)
		fmt.Printf("%-14s %14d %12.1f %8d\n", cfg.name, written, perMB, height)
	}
}

// run drives one policy through fill + steady phases and measures the
// steady write cost.
func run(pol lsmssd.Policy, noPreserve bool) (written int64, perMB float64, height int) {
	db, err := lsmssd.Open(lsmssd.Options{
		MergePolicy:     pol,
		DisablePreserve: noPreserve,
		MemtableBlocks:  64,
		Delta:           0.07,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(1))
	live := make([]uint64, 0, targetKeys)
	liveSet := make(map[uint64]int)

	op := func() (del bool, k uint64) {
		if len(live) < targetKeys || rng.Intn(2) == 0 {
			for {
				k = rng.Uint64() % 1_000_000_000
				if _, dup := liveSet[k]; !dup {
					liveSet[k] = len(live)
					live = append(live, k)
					return false, k
				}
			}
		}
		i := rng.Intn(len(live))
		k = live[i]
		last := len(live) - 1
		live[i] = live[last]
		liveSet[live[i]] = i
		live = live[:last]
		delete(liveSet, k)
		return true, k
	}

	apply := func(n int) int64 {
		var bytes int64
		buf := make([]byte, payload)
		for i := 0; i < n; i++ {
			del, k := op()
			if del {
				if err := db.Delete(k); err != nil {
					log.Fatal(err)
				}
				bytes += 8
			} else {
				if err := db.Put(k, buf); err != nil {
					log.Fatal(err)
				}
				bytes += 8 + payload
			}
			settle(db)
		}
		return bytes
	}

	apply(requests / 2) // fill + settle
	db.ResetIOStats()
	bytes := apply(requests / 2) // measure
	s := db.Stats()
	return s.BlocksWritten, float64(s.BlocksWritten) / (float64(bytes) / (1 << 20)), s.Height
}

// settle waits until the compaction goroutine has run every merge the
// writes so far queued. It yields rather than sleeps: it runs after every
// write.
func settle(db *lsmssd.DB) {
	for db.Stats().Compaction.QueueDepth > 0 {
		runtime.Gosched()
	}
}
