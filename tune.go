package lsmssd

import (
	"errors"

	"lsmssd/internal/block"
	"lsmssd/internal/learn"
	"lsmssd/internal/workload"
)

// Request is one modification request fed to TuneMixed's sample workload.
type Request struct {
	Delete bool
	Key    uint64
	Value  []byte // ignored for deletes
}

// TuneOptions configures TuneMixed.
type TuneOptions struct {
	// TauGrid is the candidate threshold set (default multiples of 10%).
	TauGrid []float64
	// GoldenSection switches from the default linear early-stop scan to
	// golden-section search over the grid (fewer measurements on tall
	// trees; Theorem 5 guarantees unimodality).
	GoldenSection bool
	// MaxBytesPerCycle bounds the workload bytes spent waiting for one
	// level cycle (default 256 MB).
	MaxBytesPerCycle int64
	// BetaWindowBytes is the measurement window for the bottom-level
	// decision (default derived from the memtable size).
	BetaWindowBytes int64
}

// TuneResult reports the learned Mixed parameters.
type TuneResult struct {
	Taus         map[int]float64 // target level → τ
	Beta         bool            // bottom-level full-merge decision
	Measurements int
	BytesDriven  int64
}

// ErrNotMixed is returned by TuneMixed when the DB does not use the Mixed
// policy.
var ErrNotMixed = errors.New("lsmssd: TuneMixed requires MergePolicy == Mixed")

// ErrSharded is returned by TuneMixed on a multi-shard DB. Learning
// drives a sample workload through one tree and measures its merges; a
// hash-partitioned store would need per-shard workload splits and
// per-shard learned parameters, which the tuner does not model yet. Tune
// on a single-shard stand-in and open the sharded store with the learned
// parameters instead.
var ErrSharded = errors.New("lsmssd: TuneMixed supports single-shard DBs only (Options.Shards == 1)")

// TuneMixed learns the Mixed policy's per-level thresholds and bottom
// decision for the workload produced by next, applying them to the DB
// (Section IV-C of the paper). The sample workload is driven through the
// live index — typically a stand-in with the same key and size
// distribution as production traffic. next returns false to signal it can
// produce no more requests (treated as an error if learning is unfinished).
//
// The DB must have been opened with MergePolicy: Mixed. Learning drives
// real merges, so it costs real writes; the paper finds the cost is small
// compared with the steady-state savings.
//
// TuneMixed tunes the granularity axis (τ, β) only. The layout axis
// cannot be retuned on a live DB — the manifest pins it, and reopen
// refuses a mismatch — so choosing between leveling, tiering, and lazy
// leveling is a comparison made before the next open: `lsmbench -workload`
// tabulates write and read cost per layout for a workload.
func (db *DB) TuneMixed(next func() (Request, bool), opts TuneOptions) (TuneResult, error) {
	if len(db.shards) > 1 {
		return TuneResult{}, ErrSharded
	}
	s := db.shards[0]
	tree, unlock := s.lockedTree()
	defer unlock()
	m, ok := tree.Policy().Mixed()
	if !ok {
		return TuneResult{}, ErrNotMixed
	}
	res, err := learn.Learn(tree, m, funcGen{next: next}, learn.Options{
		TauGrid:          opts.TauGrid,
		Search:           searchKind(opts.GoldenSection),
		MaxBytesPerCycle: opts.MaxBytesPerCycle,
		BetaWindowBytes:  opts.BetaWindowBytes,
	})
	// The sample requests went into the tree without the log, so only a
	// checkpoint makes them survive a crash; take it whether or not
	// learning finished, since the requests driven so far stay either way.
	if cerr := s.checkpointLocked(); err == nil {
		err = cerr
	}
	if err != nil {
		return TuneResult{}, err
	}
	return TuneResult{
		Taus:         res.Taus,
		Beta:         res.Beta,
		Measurements: res.Measurements,
		BytesDriven:  res.BytesDriven,
	}, nil
}

// MixedParams returns the Mixed policy's current parameters, or ok=false
// if the DB uses another policy. On a sharded DB it reports shard 0 —
// shards start from identical configurations, and TuneMixed (the only
// way they diverge) refuses to run sharded.
func (db *DB) MixedParams() (taus map[int]float64, beta bool, ok bool) {
	tree, unlock := db.shards[0].lockedTree()
	defer unlock()
	m, isMixed := tree.Policy().Mixed()
	if !isMixed {
		return nil, false, false
	}
	taus = make(map[int]float64)
	for i := 2; i < tree.Height()-1; i++ {
		taus[i] = m.Tau(i)
	}
	return taus, m.Beta(), true
}

func searchKind(golden bool) learn.SearchKind {
	if golden {
		return learn.GoldenSection
	}
	return learn.LinearEarlyStop
}

// funcGen adapts a request callback to the internal workload.Generator.
type funcGen struct {
	next func() (Request, bool)
	n    int
}

func (g funcGen) Next() (workload.Request, bool) {
	r, ok := g.next()
	if !ok {
		return workload.Request{}, false
	}
	if r.Delete {
		return workload.Request{Op: workload.Delete, Key: block.Key(r.Key)}, true
	}
	return workload.Request{Op: workload.Insert, Key: block.Key(r.Key), Payload: r.Value}, true
}

func (g funcGen) Indexed() int { return g.n }
