// Package crashloop is the deterministic power-cut recovery harness: it
// drives a file-backed DB through randomized mutate→crash→reopen cycles
// and checks the durability contract after every recovery.
//
// The contract it verifies is the WAL's acked-write guarantee:
//
//   - under SyncEvery, every acknowledged mutation survives a crash;
//   - under SyncInterval and SyncNever, the recovered state is a
//     consistent prefix of the acknowledged history — never a hole, never
//     a reordering, and never less than the last checkpoint;
//   - a clean Close always recovers everything;
//   - Validate passes after every reopen.
//
// The prefix check is exact, not probabilistic: each acknowledged request
// is one frame in the DB's one write-ahead log, whichever shards its keys
// route to, so the recovered frame count K (read back from
// Stats().WAL.LastSeq) pins down precisely which prefix of the acked
// history must equal the reopened store's contents. On a sharded store
// (Config.Shards > 1) that is one prefix across all shards: a batch that
// spans shards is recovered whole or not at all. A torn tail can
// optionally be simulated by appending garbage to the log's last segment
// after a crash; the harness then requires recovery to truncate it.
package crashloop

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"lsmssd"
	"lsmssd/internal/wal"
)

// Config parameterizes one harness run. Zero values take the documented
// defaults; only Dir is required.
type Config struct {
	Dir      string // working directory for the store files (required)
	Iters    int    // crash/restart cycles (default 50)
	MaxOps   int    // max mutations per cycle (default 200)
	Seed     int64  // RNG seed; equal seeds replay the same schedule
	KeySpace uint64 // keys drawn from [0, KeySpace) (default 512)
	Shards   int    // Options.Shards for the store under test (default 1)

	Sync     lsmssd.SyncPolicy // WAL sync policy under test
	Interval time.Duration     // SyncInterval period (default 2ms)

	CrashProb      float64 // chance a cycle ends in Crash, not Close (default 0.85)
	CheckpointProb float64 // chance of one mid-cycle Checkpoint (default 0.25)
	TornTail       bool    // after some crashes, append garbage to the last segment
	Paranoid       bool    // run the DB with Options.Paranoid

	Layout   lsmssd.Layout // level layout under test (default Leveling)
	TierRuns int           // run budget T for tiered layouts (0 = default)

	Logf func(format string, args ...any) // optional progress logger
}

func (c Config) withDefaults() Config {
	if c.Iters <= 0 {
		c.Iters = 50
	}
	if c.MaxOps <= 0 {
		c.MaxOps = 200
	}
	if c.KeySpace == 0 {
		c.KeySpace = 512
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.CrashProb == 0 {
		c.CrashProb = 0.85
	}
	if c.CheckpointProb == 0 {
		c.CheckpointProb = 0.25
	}
	return c
}

// Report aggregates what a run did and found.
type Report struct {
	Iters       int // cycles completed
	Crashes     int // cycles ended by Crash (simulated power cut)
	CleanCloses int // cycles ended by Close

	Acked       int // mutations acknowledged across all cycles
	Frames      int // WAL frames those mutations produced (one per request)
	LostFrames  int // acked frames dropped by recovery (legal only below SyncEvery)
	Recoveries  int // reopens that actually replayed frames
	ReplayedOps int // operations re-applied by recovery
	Checkpoints int // explicit mid-cycle checkpoints issued

	TornInjected int   // crashes followed by a simulated torn tail
	TornBytes    int64 // bytes recovery truncated from torn tails

	FilterSkips int64 // block reads the reopened stores' Bloom filters spared verification
}

func (r Report) String() string {
	return fmt.Sprintf(
		"crashloop: %d cycles (%d crashes, %d clean), %d acked ops in %d frames, %d lost frames, %d recoveries replayed %d ops, %d checkpoints, %d torn tails (%d bytes truncated), %d filter skips",
		r.Iters, r.Crashes, r.CleanCloses, r.Acked, r.Frames, r.LostFrames,
		r.Recoveries, r.ReplayedOps, r.Checkpoints, r.TornInjected, r.TornBytes, r.FilterSkips)
}

// frame is the model's image of one acknowledged request: the ops that
// went into a single WAL frame (one for Put/Delete, several for Apply).
type frame []modelOp

type modelOp struct {
	key uint64
	val []byte
	del bool
}

// Run executes the harness and returns its report. A non-nil error means
// the durability contract was violated (or the environment failed); the
// report is valid either way.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	var r Report
	if cfg.Dir == "" {
		return r, fmt.Errorf("crashloop: Config.Dir is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	path := filepath.Join(cfg.Dir, "store.db")
	opts := lsmssd.Options{
		Path:     path,
		Shards:   cfg.Shards,
		Paranoid: cfg.Paranoid,
		Layout:   cfg.Layout,
		TierRuns: cfg.TierRuns,
		// A small L0 pushes the key space down to the device levels, so
		// recoveries restore runs and rebuild their Bloom filters, and
		// verifyState's point reads go through those filters.
		MemtableBlocks:  2,
		BloomBitsPerKey: 10,
		WAL: lsmssd.WALOptions{
			Sync:     cfg.Sync,
			Interval: cfg.Interval,
			// Small enough that most cycles seal a segment, so crashes land
			// before, during and after the checkpointer's checkpoint.
			SegmentBytes: 4 << 10,
		},
	}

	// model is the durable state at the last verification; history the
	// acknowledged requests since, one frame each, and seqBase the log
	// sequence the model reflects. wantAll forces K == len(history) at the
	// next verification (clean close, or SyncEvery always).
	model := make(map[uint64][]byte)
	var history []frame
	var seqBase uint64
	minFrames := 0 // checkpoint floor: recovery may not land below
	wantAll := false

	// verify checks one reopened store against the acked history: the
	// recovered frame count K must sit inside [floor, acked], and the store
	// contents must equal the model advanced by exactly that prefix. On
	// success the history window resets.
	verify := func(db *lsmssd.DB, it int) error {
		s := db.Stats()
		if s.WAL.Recovery.Recovered {
			r.Recoveries++
			r.ReplayedOps += s.WAL.Recovery.Ops
			r.TornBytes += s.WAL.Recovery.TornBytes
		}
		if len(s.Shards) != cfg.Shards {
			return fmt.Errorf("crashloop: cycle %d: store reports %d shards, config has %d", it, len(s.Shards), cfg.Shards)
		}
		k := int(s.WAL.LastSeq) - int(seqBase)
		if k < 0 || k > len(history) {
			return fmt.Errorf("crashloop: cycle %d: recovered sequence %d is outside the acked window [%d, %d]",
				it, s.WAL.LastSeq, seqBase, seqBase+uint64(len(history)))
		}
		if k < minFrames {
			return fmt.Errorf("crashloop: cycle %d: recovery kept %d of %d acked frames, below the checkpoint floor %d",
				it, k, len(history), minFrames)
		}
		if (wantAll || cfg.Sync == lsmssd.SyncEvery) && k != len(history) {
			return fmt.Errorf("crashloop: cycle %d: ACKED WRITE LOSS: recovery kept %d of %d acked frames (sync policy %v)",
				it, k, len(history), cfg.Sync)
		}
		r.LostFrames += len(history) - k
		for _, fr := range history[:k] {
			applyFrame(model, fr)
		}
		if err := verifyState(db, model, cfg.KeySpace); err != nil {
			return fmt.Errorf("crashloop: cycle %d: recovered state does not match the acked prefix (%d of %d frames kept): %w", it, k, len(history), err)
		}
		r.FilterSkips += db.Stats().BloomSkipped - s.BloomSkipped
		if err := db.Validate(); err != nil {
			return fmt.Errorf("crashloop: cycle %d: validate after recovery: %w", it, err)
		}
		logf("cycle %d: recovered %d/%d frames across %d shards, state verified (%d keys)",
			it, k, len(history), cfg.Shards, len(model))
		history, seqBase, minFrames, wantAll = history[:0], s.WAL.LastSeq, 0, false
		return nil
	}

	for it := 0; it < cfg.Iters; it++ {
		db, err := lsmssd.Open(opts)
		if err != nil {
			return r, fmt.Errorf("crashloop: cycle %d: reopen: %w", it, err)
		}
		if err := verify(db, it); err != nil {
			_ = db.Close()
			return r, err
		}

		// Mutate: a random mix of puts, deletes, and batches, with an
		// optional explicit checkpoint somewhere in the middle.
		nops := 1 + rng.Intn(cfg.MaxOps)
		ckAt := -1
		if rng.Float64() < cfg.CheckpointProb {
			ckAt = rng.Intn(nops)
		}
		for i := 0; i < nops; i++ {
			if i == ckAt {
				if err := db.Checkpoint(); err != nil {
					_ = db.Close()
					return r, fmt.Errorf("crashloop: cycle %d: checkpoint: %w", it, err)
				}
				r.Checkpoints++
				minFrames = len(history)
			}
			fr := randFrame(rng, cfg.KeySpace)
			if err := applyToDB(db, fr); err != nil {
				_ = db.Close()
				return r, fmt.Errorf("crashloop: cycle %d: mutation %d: %w", it, i, err)
			}
			history = append(history, fr)
			r.Frames++
			r.Acked += len(fr)
		}

		// End the cycle: power cut (usually) or clean shutdown.
		if rng.Float64() < cfg.CrashProb {
			if err := db.Crash(); err != nil {
				return r, fmt.Errorf("crashloop: cycle %d: crash teardown: %w", it, err)
			}
			r.Crashes++
			if cfg.TornTail && rng.Intn(2) == 0 {
				n, err := tearTail(path, rng)
				if err != nil {
					return r, fmt.Errorf("crashloop: cycle %d: injecting torn tail: %w", it, err)
				}
				if n > 0 {
					r.TornInjected++
				}
			}
		} else {
			if err := db.Close(); err != nil {
				return r, fmt.Errorf("crashloop: cycle %d: close: %w", it, err)
			}
			r.CleanCloses++
			wantAll = true
		}
		r.Iters++
	}

	// Final reopen proves the last cycle's outcome is recoverable too.
	db, err := lsmssd.Open(opts)
	if err != nil {
		return r, fmt.Errorf("crashloop: final reopen: %w", err)
	}
	defer db.Close()
	if err := verify(db, cfg.Iters); err != nil {
		return r, fmt.Errorf("crashloop: final reopen: %w", err)
	}
	return r, nil
}

// randFrame draws one request: usually a single put or delete, sometimes
// a small batch (which the DB logs as one group-committed frame).
func randFrame(rng *rand.Rand, keySpace uint64) frame {
	n := 1
	if rng.Intn(8) == 0 {
		n = 2 + rng.Intn(7)
	}
	fr := make(frame, n)
	for i := range fr {
		op := modelOp{key: uint64(rng.Int63n(int64(keySpace)))}
		if rng.Intn(4) == 0 {
			op.del = true
		} else {
			val := make([]byte, 1+rng.Intn(48))
			for j := range val {
				val[j] = byte(rng.Intn(256))
			}
			op.val = val
		}
		fr[i] = op
	}
	return fr
}

func applyToDB(db *lsmssd.DB, fr frame) error {
	if len(fr) == 1 {
		op := fr[0]
		if op.del {
			return db.Delete(op.key)
		}
		return db.Put(op.key, op.val)
	}
	b := db.NewBatch()
	for _, op := range fr {
		if op.del {
			b.Delete(op.key)
		} else {
			b.Put(op.key, op.val)
		}
	}
	return db.Apply(b)
}

func applyFrame(model map[uint64][]byte, fr frame) {
	for _, op := range fr {
		if op.del {
			delete(model, op.key)
		} else {
			model[op.key] = op.val
		}
	}
}

// verifyState checks the store's full contents against the model in both
// directions: a scan must yield exactly the model's keys and values, and a
// point lookup of every key in the space must return the model's value, or
// not-found for a key the model lacks — so a Bloom filter rebuilt at
// reopen can never hide a live key.
func verifyState(db *lsmssd.DB, model map[uint64][]byte, keySpace uint64) error {
	for key := uint64(0); key < keySpace; key++ {
		value, found, err := db.Get(key)
		if err != nil {
			return fmt.Errorf("get %d: %w", key, err)
		}
		want, ok := model[key]
		switch {
		case found != ok:
			return fmt.Errorf("get %d: found=%v, acked prefix has it %v", key, found, ok)
		case found && !bytes.Equal(value, want):
			return fmt.Errorf("get %d: %d-byte value, acked prefix has %d bytes", key, len(value), len(want))
		}
	}
	seen := 0
	var verr error
	err := db.Scan(0, keySpace-1, func(key uint64, value []byte) bool {
		want, ok := model[key]
		if !ok {
			verr = fmt.Errorf("key %d present in store but deleted (or never written) in the acked prefix", key)
			return false
		}
		if !bytes.Equal(value, want) {
			verr = fmt.Errorf("key %d has %d-byte value, acked prefix has %d bytes", key, len(value), len(want))
			return false
		}
		seen++
		return true
	})
	if err != nil {
		return err
	}
	if verr != nil {
		return verr
	}
	if seen != len(model) {
		return fmt.Errorf("store holds %d keys, acked prefix holds %d", seen, len(model))
	}
	return nil
}

// tearTail appends garbage to the last segment of the store's log (one for
// all shards), simulating a frame torn mid-write by the power cut. Returns
// the bytes appended.
func tearTail(path string, rng *rand.Rand) (int, error) {
	segs, err := wal.SegmentFiles(walBase(path))
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	garbage := make([]byte, 1+rng.Intn(100))
	for i := range garbage {
		garbage[i] = byte(rng.Intn(256))
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(garbage); err != nil {
		return 0, err
	}
	return len(garbage), f.Close()
}

func walBase(path string) string { return path + ".wal" }
