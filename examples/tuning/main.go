// Tuning: learn the Mixed policy's parameters for a workload and compare
// the write cost before and after — the paper's Section IV-C in action.
//
// The Mixed policy starts as pure ChooseBest (τ=0, β=false). TuneMixed
// drives a sample workload through the index, measures the per-cycle cost
// curve C(τ) level by level (top-down, as Theorem 4 licenses), and applies
// the optimal thresholds. With a small bottom level, learning typically
// flips β to true — full merges into a mostly-empty bottom level are a
// good deal (the paper's Figure 2 insight).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"

	"lsmssd"
)

const (
	targetKeys = 40_000
	payload    = 100
)

func main() {
	db, err := lsmssd.Open(lsmssd.Options{
		MergePolicy:    lsmssd.Mixed,
		MemtableBlocks: 64,
		Delta:          0.07,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	gen := newSteadyGen(1)

	// Fill to the target size and settle.
	for gen.indexed() < targetKeys {
		gen.apply(db)
	}
	for i := 0; i < 100_000; i++ {
		gen.apply(db)
	}

	// Baseline cost with the untuned policy (pure ChooseBest behaviour).
	before := measure(db, gen, 200_000)
	fmt.Printf("before tuning: %.1f blocks written per 1MB of requests\n", before)

	// Learn. The sample stream continues the same workload.
	res, err := db.TuneMixed(func() (lsmssd.Request, bool) {
		return gen.next(), true
	}, lsmssd.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned: taus=%v beta=%v (%d measurements, %.1f MB driven)\n",
		res.Taus, res.Beta, res.Measurements, float64(res.BytesDriven)/(1<<20))

	after := measure(db, gen, 200_000)
	fmt.Printf("after tuning:  %.1f blocks written per 1MB of requests\n", after)
	if err := db.Validate(); err != nil {
		log.Fatal(err)
	}
}

// measure drives n steady requests and returns blocks written per MB. Every
// request settles, so the window charges exactly the merges these requests
// caused.
func measure(db *lsmssd.DB, g *steadyGen, n int) float64 {
	db.ResetIOStats()
	var bytes int64
	for i := 0; i < n; i++ {
		bytes += g.apply(db)
	}
	return float64(db.Stats().BlocksWritten) / (float64(bytes) / (1 << 20))
}

// settle waits until the compaction goroutine has run every merge the
// writes so far queued. It yields rather than sleeps: it runs after every
// write.
func settle(db *lsmssd.DB) {
	for db.Stats().Compaction.QueueDepth > 0 {
		runtime.Gosched()
	}
}

// steadyGen is a uniform insert/delete stream pinned near targetKeys.
type steadyGen struct {
	rng  *rand.Rand
	live []uint64
	pos  map[uint64]int
	buf  []byte
}

func newSteadyGen(seed int64) *steadyGen {
	return &steadyGen{
		rng: rand.New(rand.NewSource(seed)),
		pos: make(map[uint64]int),
		buf: make([]byte, payload),
	}
}

func (g *steadyGen) indexed() int { return len(g.live) }

func (g *steadyGen) next() lsmssd.Request {
	if len(g.live) < targetKeys || g.rng.Intn(2) == 0 {
		for {
			k := g.rng.Uint64() % 1_000_000_000
			if _, dup := g.pos[k]; dup {
				continue
			}
			g.pos[k] = len(g.live)
			g.live = append(g.live, k)
			return lsmssd.Request{Key: k, Value: g.buf}
		}
	}
	i := g.rng.Intn(len(g.live))
	k := g.live[i]
	last := len(g.live) - 1
	g.live[i] = g.live[last]
	g.pos[g.live[i]] = i
	g.live = g.live[:last]
	delete(g.pos, k)
	return lsmssd.Request{Delete: true, Key: k}
}

// apply writes the stream's next request and settles, so the store's shape,
// and every count taken from it, depends on the requests alone and not on
// when the compaction goroutine ran. It returns the request's bytes.
func (g *steadyGen) apply(db *lsmssd.DB) int64 {
	r := g.next()
	var err error
	bytes := int64(8)
	if r.Delete {
		err = db.Delete(r.Key)
	} else {
		err = db.Put(r.Key, r.Value)
		bytes += int64(len(r.Value))
	}
	if err != nil {
		log.Fatal(err)
	}
	settle(db)
	return bytes
}
