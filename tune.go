package lsmssd

import (
	"errors"
	"sync"

	"lsmssd/internal/block"
	"lsmssd/internal/core"
	"lsmssd/internal/learn"
	"lsmssd/internal/policy"
	"lsmssd/internal/workload"
)

// Request is one modification request fed to TuneMixed's sample workload.
type Request struct {
	Delete bool
	Key    uint64
	Value  []byte // ignored for deletes
}

// TuneOptions configures TuneMixed. Its byte budgets are per shard: a
// store of N shards may drive N times as many sample bytes.
type TuneOptions struct {
	// TauGrid is the candidate threshold set (default multiples of 10%).
	TauGrid []float64
	// GoldenSection switches from the default linear early-stop scan to
	// golden-section search over the grid (fewer measurements on tall
	// trees; Theorem 5 guarantees unimodality).
	GoldenSection bool
	// MaxBytesPerCycle bounds the workload bytes spent waiting for one
	// level cycle, per shard (default 256 MB).
	MaxBytesPerCycle int64
	// BetaWindowBytes is the measurement window for the bottom-level
	// decision, per shard (default derived from the memtable size: 64
	// memtables' worth of 16-byte requests).
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

// TuneMixed learns the Mixed policy's per-level thresholds and bottom
// decision for the workload produced by next, applying them to the DB
// (Section IV-C of the paper). The sample workload is driven through the
// live store — typically a stand-in with the same key and size
// distribution as production traffic. next returns false to signal it can
// produce no more requests (treated as an error if learning is unfinished);
// it is not called again after that.
//
// The DB must have been opened with MergePolicy: Mixed. Each sample
// request is a Put or Delete like any other: logged, and paid for under the
// store's sync policy (one fsync per request under SyncEvery). After each
// one TuneMixed waits for the shard's merges to finish, so it measures the
// paper's synchronous merge sequence. Learning drives real merges, so it
// costs real writes; the paper finds the cost is small compared with the
// steady-state savings.
//
// A sharded store learns one (τ, β) for all its shards from their pooled
// level cycles; the shards must have one height when tuning starts. Other
// writers may run meanwhile — it is safe — but their merges count in the
// measurements.
//
// TuneMixed tunes the granularity axis (τ, β) only. The layout axis
// cannot be retuned on a live DB — the manifest pins it, and reopen
// refuses a mismatch — so choosing between leveling, tiering, and lazy
// leveling is a comparison made before the next open: `lsmbench -workload`
// tabulates write and read cost per layout for a workload.
func (db *DB) TuneMixed(next func() (Request, bool), opts TuneOptions) (TuneResult, error) {
	t := &tuneTarget{db: db}
	for _, s := range db.shards {
		m, ok := s.tree.Policy().Mixed()
		if !ok {
			return TuneResult{}, ErrNotMixed
		}
		t.mixed = append(t.mixed, m)
	}
	window := opts.BetaWindowBytes
	if window == 0 {
		cfg := db.shards[0].tree.Config()
		window = int64(64 * cfg.K0 * cfg.BlockCapacity * 16)
	}
	res, err := learn.Learn(t, &funcGen{next: next}, learn.Options{
		TauGrid:          opts.TauGrid,
		Search:           searchKind(opts.GoldenSection),
		MaxBytesPerCycle: opts.MaxBytesPerCycle,
		BetaWindowBytes:  window,
	})
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
// if the DB uses another policy. On a sharded DB it reports shard 0: the
// shards start from identical configurations, and TuneMixed sets every
// shard alike.
func (db *DB) MixedParams() (taus map[int]float64, beta bool, ok bool) {
	return db.shards[0].mixedParams()
}

// mixedParams is MixedParams for one shard.
func (s *shard) mixedParams() (taus map[int]float64, beta bool, ok bool) {
	m, isMixed := s.tree.Policy().Mixed()
	if !isMixed {
		return nil, false, false
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	taus = make(map[int]float64)
	for i := 2; i < s.tree.Height()-1; i++ {
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

// tuneTarget is the DB as the learner's target. A sample request takes the
// write path every Put and Delete takes, then waits until its shard's
// scheduler is idle: a drained scheduler runs exactly the inline cascade's
// merges. The merge hooks and the Mixed parameters are set under each
// shard's merge lock, which every merge step holds; no lock is held across
// learning.
type tuneTarget struct {
	db    *DB
	mixed []*policy.Mixed // each shard's
	// hookMu serializes the hook's calls, which come from every shard's
	// scheduler goroutine.
	hookMu sync.Mutex
}

func (t *tuneTarget) Put(k block.Key, payload []byte) error {
	if err := t.db.Put(uint64(k), payload); err != nil {
		return err
	}
	return t.db.shardFor(uint64(k)).sched.WaitIdle()
}

func (t *tuneTarget) Delete(k block.Key) error {
	if err := t.db.Delete(uint64(k)); err != nil {
		return err
	}
	return t.db.shardFor(uint64(k)).sched.WaitIdle()
}

func (t *tuneTarget) Heights() []int {
	hs := make([]int, len(t.db.shards))
	t.eachShard(func(s *shard) { hs[s.id] = s.tree.Height() })
	return hs
}

func (t *tuneTarget) OnMerge(fn func(shard int, ev core.MergeEvent)) {
	t.eachShard(func(s *shard) {
		if fn == nil {
			s.tree.OnMerge(nil)
			return
		}
		s.tree.OnMerge(func(ev core.MergeEvent) {
			t.hookMu.Lock()
			defer t.hookMu.Unlock()
			fn(s.id, ev)
		})
	})
}

func (t *tuneTarget) SetTau(level int, tau float64) {
	t.eachShard(func(s *shard) { t.mixed[s.id].SetTau(level, tau) })
}

func (t *tuneTarget) SetBeta(beta bool) {
	t.eachShard(func(s *shard) { t.mixed[s.id].SetBeta(beta) })
}

// eachShard runs fn on every shard under its merge lock, which every merge
// step holds.
func (t *tuneTarget) eachShard(fn func(*shard)) {
	for _, s := range t.db.shards {
		s.mergeMu.Lock()
		fn(s)
		s.mergeMu.Unlock()
	}
}

// funcGen adapts a request callback to the internal workload.Generator.
// The callback's first false is final: it is not called again.
type funcGen struct {
	next func() (Request, bool)
	done bool
}

func (g *funcGen) Next() (workload.Request, bool) {
	if g.done {
		return workload.Request{}, false
	}
	r, ok := g.next()
	if !ok {
		g.done = true
		return workload.Request{}, false
	}
	if r.Delete {
		return workload.Request{Op: workload.Delete, Key: block.Key(r.Key)}, true
	}
	return workload.Request{Op: workload.Insert, Key: block.Key(r.Key), Payload: r.Value}, true
}

// Indexed is 0: the callback keeps its own count.
func (g *funcGen) Indexed() int { return 0 }
