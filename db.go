package lsmssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lsmssd/internal/block"
	"lsmssd/internal/histogram"
	"lsmssd/internal/obs"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

// ErrClosed is returned by every DB operation issued after Close.
var ErrClosed = errors.New("lsmssd: database is closed")

// ErrCorrupt is returned when a data block read back from the device
// fails its integrity checksum — a torn write, bit rot, or external
// damage. The engine surfaces it through Get, Scan, iterators, and merge
// paths rather than treating the block as absent, so corruption is always
// loud. Test with errors.Is.
var ErrCorrupt = storage.ErrCorrupt

// DB is a key-value store backed by the paper's LSM-tree. All methods are
// safe for concurrent use.
//
// Sharding: with Options.Shards = N > 1 the DB is a router over N
// independent LSM trees. Each key belongs to exactly one shard — chosen
// by key & (N-1) — which owns its own memtable, storage levels, device
// file, manifest, and compaction scheduler. The write-ahead log is the
// DB's, one for all shards: every mutation (a Put, a Delete, a whole
// Apply) is one frame in it, whichever shards its keys belong to. Point
// operations touch only the owning shard; Scan and NewIterator merge
// per-shard snapshots into one globally ordered stream; Stats, Validate,
// Checkpoint, Close fan out and aggregate. With the default Shards = 1 the
// DB is exactly the single-tree engine, byte-for-byte on disk.
//
// Concurrency model: a mutation holds the writer locks of the shards it
// touches — one for Put and Delete, every touched shard's for Apply, taken
// in ascending shard order — so writes to different shards proceed in
// parallel. Under SyncEvery it holds them only to write its log frame: the
// frame joins the commit queue, whose leader fsyncs every queued frame at
// once, and the writers then apply their frames in log order, so
// concurrent writers share the log's fsyncs (group commit) whichever
// shards they touch.
// Reads (Get, Scan, NewIterator, Stats, Histogram, Validate) run against
// immutable per-shard snapshots: every merge publishes one, and a read
// that follows a mutation captures L0 anew in O(1), waiting at most for a
// batch in flight to land. Readers therefore never wait for a merge
// cascade, and an in-progress Scan or Iterator observes a frozen,
// consistent state no matter how many merges complete meanwhile: a
// multi-shard Apply changes its shards' L0s as one step, and NewIterator
// acquires its snapshots between such steps, so an iterator sees all of a
// batch or none of it.
//
// Merge scheduling: mutations land records in the owning shard's L0 and
// hand overflow work to that shard's compaction scheduler
// (internal/compaction), whose goroutine is the only thing that runs the
// shard's merges. Checkpoints run on one DB goroutine of their own, the
// checkpointer, which a sealed WAL segment wakes; merges never wait for
// it. Writes pay only the L0 insertion, subject to LevelDB-style
// backpressure when compaction falls behind: a 1 ms pacing sleep per write
// once the shard's L0 holds 2×MemtableBlocks blocks, and a hard stall from
// 4×MemtableBlocks until the goroutine drains it. A merge step or
// checkpoint that fails demotes its shard to read-only (Health), and Close
// reports the error. Stats().Compaction.QueueDepth is zero once the
// cascades and every checkpoint a sealed segment made due have finished; a
// caller that waits for that after every write gets exactly the paper's
// inline merge sequence, and its BlocksWritten. No merge is ever initiated
// from this layer directly.
type DB struct {
	closed atomic.Bool
	opts   Options

	// shards holds the per-key-partition engines; len(shards) is a power
	// of two and mask is len(shards)-1, so shardFor is a single AND.
	shards []*shard
	mask   uint64

	// The write-ahead log (nil for an in-memory store, and until Open's
	// replay of it is done, which is how commit knows to skip the append)
	// and what the replay did. Once it is open two goroutines serve it
	// (commit.go): the checkpointer, woken on ckptWake and asked by
	// DB.Checkpoint on ckptReq, and, under SyncInterval, intervalSync.
	// shutdown closes quit once (quitOnce) and waits for both (bg) before
	// it takes any lock.
	wal      atomic.Pointer[wal.Log]
	recovery WALRecoveryStats
	ckptWake chan struct{}
	ckptReq  chan chan error
	quit     chan struct{}
	quitOnce sync.Once
	bg       sync.WaitGroup

	// queue is the group commit of SyncEvery writers (commit.go); its
	// mutex is DESIGN.md §13.4's commit-queue row.
	queue commitQueue

	// pubMu makes a multi-shard Apply one step for readers: the writer
	// applies its shards' slices holding it exclusively, and newIterator
	// acquires its snapshots holding it shared. Get and single-shard
	// writes never take it.
	pubMu sync.RWMutex

	// Observability (see metrics.go), shared by every shard so one bus
	// subscription and one metrics endpoint observe the whole DB (events
	// carry a Shard field). bus, lat, and tracer always exist; lat records
	// only when Options.Metrics (or MetricsAddr) enabled it, the tracer is
	// inert unless TraceSampleRate or SlowOpThreshold is set, and the bus
	// constructs no events until a sink subscribes. lat holds the
	// router-level series (multi-shard ops like Scan); point ops record
	// into the owning shard's set and Stats merges them. metrics is the
	// HTTP endpoint, nil unless Options.MetricsAddr is set; recorder is
	// the flight recorder's ticker goroutine, nil unless Metrics is on,
	// stopped exactly once (recOnce) before shard teardown so its
	// collector never observes a half-closed shard.
	bus      *obs.Bus
	lat      *obs.LatencySet
	tracer   *obs.Tracer
	metrics  *obs.Server
	recorder *obs.Recorder
	recOnce  sync.Once
}

// Open creates or reopens a DB with the given options. An empty Options
// value yields an in-memory engine with the paper's defaults; invalid
// parameter combinations are rejected with an error naming the offending
// field (see Options.Validate).
//
// With Path set, Open looks for a manifest (Path + ".manifest") written by
// a previous Close or Checkpoint and, if present, restores the store from
// it; otherwise the file is created fresh. Open then replays the
// write-ahead log (Path + ".wal.*") over the restored state: every
// operation in a frame beyond its shard's manifest sequence is re-applied
// to that shard, a torn tail left by a power cut is truncated at the first
// bad frame, and every shard that replayed anything is checkpointed before
// Open returns (Stats reports what the replay did). A frame is recovered
// whole or not at all, so a power cut never keeps part of an Apply, and
// after a crash the store holds every write the sync policy made durable.
// A live block that does not hold what its manifest names — a bug or bit
// rot, since a checkpoint syncs the device first and freed slots are not
// reused until a later checkpoint — fails Open with an error wrapping
// ErrCorrupt that names the block, rather than serving wrong answers.
//
// With Shards > 1, each shard restores from its own device file and
// manifest (shard 0 owns the Path-named files, shard i the ".shard<i>"
// variants), and the one log serves them all. The shard count is recorded
// in each manifest; reopening an existing store with a different
// Options.Shards fails rather than routing keys to the wrong trees. Open
// also refuses a store that still has per-shard log files
// (Path + ".shard<i>.wal.*"), which this version no longer reads, and
// names the file.
func Open(opts Options) (*DB, error) {
	if err := opts.Validate(); err != nil { // before the defaults: it tells a derived B from a given one
		return nil, err
	}
	opts = opts.withDefaults()
	db := &DB{opts: opts, bus: obs.NewBus(0), lat: &obs.LatencySet{},
		ckptWake: make(chan struct{}, 1), ckptReq: make(chan chan error), quit: make(chan struct{})}
	db.queue.settle.L = &db.queue.mu
	db.lat.Enable(opts.Metrics)
	db.tracer = obs.NewTracer(db.bus, opts.Shards, opts.TraceSampleRate, opts.SlowOpThreshold)
	db.mask = uint64(opts.Shards - 1)
	db.shards = make([]*shard, 0, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		s, err := db.openShard(i)
		if err != nil {
			// Tear down the shards already brought up, leaving their files
			// exactly as recovery left them (no further checkpoint).
			return nil, errors.Join(shardErr(i, err), db.shutdown(true))
		}
		db.shards = append(db.shards, s)
	}
	if err := db.openWAL(); err != nil {
		return nil, errors.Join(err, db.shutdown(true))
	}
	db.startBackground()
	return db.startObs()
}

func manifestPath(path string) string { return path + ".manifest" }
func walBase(path string) string      { return path + ".wal" }

// shardErr attributes err to its shard. Fan-out paths (shutdown,
// Checkpoint, Validate) aggregate per-shard failures with
// errors.Join; without the index a multi-shard teardown error would not
// say which fault domain each failure belongs to.
func shardErr(id int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("shard %d: %w", id, err)
}

// shardFor routes a key to its owning shard: the low bits of the key
// select one of the power-of-two shards.
func (db *DB) shardFor(key uint64) *shard {
	return db.shards[key&db.mask]
}

// lockShards acquires the writer locks of shards, which must be in
// ascending shard order — the one sanctioned way to hold more than one
// (the shard-lock-order lint rule enforces both the ordering here and the
// absence of nesting everywhere else). unlockShards releases them; callers
// must not interleave other lock acquisitions.
func lockShards(shards []*shard) {
	for _, s := range shards {
		s.writerMu.Lock()
	}
}

// unlockShards releases the locks lockShards took.
func unlockShards(shards []*shard) {
	for _, s := range shards {
		s.writerMu.Unlock()
	}
}

// Checkpoint atomically persists the store's metadata (level indexes and
// memtable contents) to the per-shard manifests, so a subsequent Open
// restores the current state, and lets the log drop the segments every
// shard's checkpoint now covers. It asks the checkpointer to checkpoint
// every shard and waits for those runs, behind a checkpoint already in
// flight. Shards checkpoint one at a time — each shard's checkpoint is
// atomic for its own keys, and WAL replay covers any shard that crashes
// between its siblings' checkpoints. A shard whose checkpoint fails is
// demoted to read-only, and the others are still checkpointed. Only
// meaningful for file-backed stores; a no-op without Path.
func (db *DB) Checkpoint() error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.opts.Path == "" {
		return nil
	}
	done := make(chan error, 1)
	select {
	case db.ckptReq <- done:
		return <-done
	case <-db.quit:
		return ErrClosed
	}
}

// Put inserts or updates the value stored for key. It may pace or stall
// when the owning shard's L0 reaches 2× or 4× MemtableBlocks blocks, and it
// fails with ErrShardReadOnly once a fault — a failed merge step,
// checkpoint or log sync among them — demoted that shard. The memtable
// keeps value itself, not a copy: the caller must not modify it
// afterwards.
func (db *DB) Put(key uint64, value []byte) error {
	ops := []block.Op{{Key: key, Value: value}}
	return db.write(obs.OpPut, ops, ops, []*shard{db.shardFor(key)})
}

// Delete removes key. Deleting an absent key is a no-op that still costs a
// logged tombstone, as in any LSM store.
func (db *DB) Delete(key uint64) error {
	ops := []block.Op{{Key: key, Delete: true}}
	return db.write(obs.OpDelete, ops, ops, []*shard{db.shardFor(key)})
}

// Get returns the value stored for key. It runs against the owning
// shard's current snapshot without taking any writer lock, so concurrent
// Gets scale across cores even while merges run. A value found in the
// memtable is shared with the engine and must not be modified; a value
// found in a storage level is a private copy, taken out of the cached
// block under the cache's lock — the one allocation such a Get makes.
func (db *DB) Get(key uint64) (value []byte, found bool, err error) {
	s := db.shardFor(key)
	start := s.lat.Start()
	sp := db.tracer.Start(obs.OpGet, s.id)
	defer func() {
		sp.Finish()
		s.lat.Done(obs.OpGet, start)
	}()
	p, err := s.pinView()
	if err != nil {
		return nil, false, err
	}
	defer p.Unpin()
	value, found, err = p.View().GetTraced(block.Key(key), sp)
	if err != nil {
		// Corruption observed on the read path counts against the shard's
		// health (Degraded while writable, Failed once read-only).
		s.noteReadError(err)
	}
	return value, found, err
}

// Scan calls fn for each key in [lo, hi] in ascending order until fn
// returns false. The whole scan observes one snapshot per shard, acquired
// together up front: a merge or write that completes mid-scan does not
// change what the scan sees. Scan is a thin wrapper over the Iterator
// API, which merges the per-shard snapshots into one ordered stream. The
// value passed to fn is valid only until fn returns — it points into a
// block buffer the scan reuses — so fn must not modify it, and must copy
// it to keep it.
func (db *DB) Scan(lo, hi uint64, fn func(key uint64, value []byte) bool) error {
	start := db.lat.Start()
	defer db.lat.Done(obs.OpScan, start)
	// A scan crosses shards, so its span carries shard -1 and its phase
	// histograms are not shard-attributed. The span is attached before the
	// iterator primes its streams: the L0 seeks land in PhaseMemtable,
	// every block fetch (priming ones included) in PhaseCacheRead /
	// PhaseDevRead, heap interleaving in PhaseKWayMerge, the caller's fn in
	// PhaseOther.
	sp := db.tracer.Start(obs.OpScan, -1)
	defer sp.Finish()
	it, err := db.newIterator(lo, hi, sp, true)
	if err != nil {
		return err
	}
	for {
		sp.To(obs.PhaseKWayMerge)
		ok := it.Next()
		sp.To(obs.PhaseOther)
		if !ok || !fn(it.Key(), it.Value()) {
			break
		}
	}
	return it.Close()
}

// Close checkpoints a file-backed store and releases the DB's resources,
// including the metrics endpoint and the event bus (pending events are
// delivered to subscribed sinks before Close returns). Every operation
// issued after Close returns ErrClosed. A cascade interrupted mid-way is
// completed on the next Open (the manifest round-trips over-capacity
// levels; Restore drains them). The error of a background merge step or
// checkpoint that failed is folded into Close's return.
func (db *DB) Close() error { return db.shutdown(false) }

// Crash abandons the DB as a power cut would: no checkpoint, no device
// sync, and every write-ahead log frame past the last policy-driven fsync
// is lost — the frames the log still held in memory are never written, and
// those already in its file are zeroed, exactly as an OS page cache would
// lose them. A subsequent Open performs crash recovery from each shard's
// last checkpoint plus the surviving prefix of the log. Crash exists for
// durability testing (the crash-loop harness drives it); production code
// wants Close. The returned error reports teardown problems only.
func (db *DB) Crash() error { return db.shutdown(true) }

// shutdown is the DB's one teardown, shared by Close, Crash and a failed
// Open; they differ only in the last step applied to each shard under its
// writer lock (shard.releaseLocked: clean close, or crash) and to the log
// after every shard (close, or drop the unsynced tail).
//
// Ordering: every shard's compaction scheduler and scrubber, the
// checkpointer and the interval-sync goroutine are stopped first, before
// any lock is taken — the checkpointer's in-flight checkpoint needs a
// writer lock for its capture, and all must be quiescent before the
// devices, the log and the event bus go away. The flight recorder stops
// next (its collector reads per-shard state the release step frees). The
// commit queue closes and its frames settle, before any writer lock is
// taken, since its writers take them again to apply. Then every writer
// lock is taken (DESIGN.md §13.4), the metrics endpoint and the bus close,
// the DB is marked closed, and each shard is released.
func (db *DB) shutdown(crash bool) error {
	for _, s := range db.shards {
		s.sched.Stop()
		s.stopScrub()
	}
	db.stopBackground()
	db.recOnce.Do(func() { db.recorder.Close() })
	db.queue.close()
	lockShards(db.shards)
	defer unlockShards(db.shards)
	if db.closed.Load() {
		return ErrClosed
	}
	var errs []error
	if db.metrics != nil {
		errs = append(errs, db.metrics.Close())
		db.metrics = nil
	}
	db.bus.Close()
	db.closed.Store(true)
	for _, s := range db.shards {
		errs = append(errs, shardErr(s.id, s.releaseLocked(crash)))
	}
	if log := db.wal.Load(); log != nil {
		if crash {
			errs = append(errs, log.Crash())
		} else {
			errs = append(errs, log.Close())
		}
	}
	return errors.Join(errs...)
}

// Validate checks every internal invariant of every shard (level
// ordering, waste constraints, storage accounting). The structural checks
// run lock-free against each shard's current snapshot; only the
// device-accounting cross-check briefly takes that shard's merge lock.
// It does not perturb the I/O statistics.
func (db *DB) Validate() error {
	for _, s := range db.shards {
		if err := s.validate(); err != nil {
			return shardErr(s.id, err)
		}
	}
	return nil
}

// ForceGrow adds a storage level to every shard ahead of the bottom
// level's natural overflow. The paper notes that a relatively empty
// bottom level makes merges into it unusually cheap and leaves strategic
// level growth as an open direction; this exposes the experiment. Most
// applications should let the tree grow on its own.
func (db *DB) ForceGrow() {
	for _, s := range db.shards {
		s.forceGrow()
	}
}

// Histogram returns the normalized key-frequency histogram of storage
// level (1-based) over buckets equal subdivisions of [0, keySpace) — the
// paper's Figure 1 diagnostic, summed across shards. It reads from the
// current per-shard snapshots without blocking writers. Shards whose tree
// has not grown the requested level yet contribute nothing; the error is
// returned only if no shard has it.
func (db *DB) Histogram(level int, keySpace uint64, buckets int) ([]float64, error) {
	var total []int
	var firstErr error
	ok := false
	for _, s := range db.shards {
		v, err := s.acquireView()
		if err != nil {
			return nil, err
		}
		counts, err := histogram.ViewLevel(v, level, keySpace, buckets)
		v.Release()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = true
		if total == nil {
			total = counts
		} else {
			for i, c := range counts {
				total[i] += c
			}
		}
	}
	if !ok {
		return nil, firstErr
	}
	return histogram.Normalize(total), nil
}
