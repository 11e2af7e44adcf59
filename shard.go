package lsmssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/health"
	"lsmssd/internal/invariant"
	"lsmssd/internal/manifest"
	"lsmssd/internal/obs"
	"lsmssd/internal/policy"
	"lsmssd/internal/retry"
	"lsmssd/internal/storage"
)

// shard is one of the DB's independent LSM trees: its own memtable and
// storage levels (core.Tree), device file, manifest, compaction scheduler,
// and locks. The router (db.go) hash-partitions the key space across
// shards, so two shards never store the same key. The write-ahead log is
// the DB's, shared by every shard (commit.go).
//
// The shard's checkpoint is captureLocked + persist; it covers the shard's
// keys in the shared log up to the sequence it records. The DB's
// checkpointer runs it (commit.go), or, while the checkpointer is not
// running, Close and Open's post-recovery checkpoint.
type shard struct {
	id   int
	db   *DB
	path string // device file path; "" for an in-memory shard

	// mergeMu guards the storage levels, writerMu orders commits (and the
	// checkpoint captures between them); who takes each, and in what
	// order, is DESIGN.md §13.4's lock table.
	mergeMu  sync.Mutex
	writerMu sync.Mutex
	tree     *core.Tree
	sched    *compaction.Scheduler
	raw      storage.Device // the base device (FileDevice/MemDevice), for Close and reclaim
	// dev is what the tree reads and writes through: raw, behind the
	// optional Options.DeviceWrap decoration (the fault-injection seam)
	// and the transient-read retry layer. rdev is the same object typed
	// for retry accounting. Checkpoint syncs through dev so injected sync
	// faults are observed; reclaim and close still address raw directly.
	dev  storage.Device
	rdev *storage.RetryDevice

	// health is the shard's fault-domain state machine (health.go,
	// DESIGN.md §16): write-side faults demote only this shard, reads
	// keep serving until Failed, and the scrubber promotes a clean
	// Degraded shard back to Healthy.
	health *health.Tracker

	// Scrubber goroutine state (nil/zero unless Options.ScrubInterval is
	// set); the counters feed ShardStats.
	scrubQuit                                              chan struct{}
	scrubDone                                              chan struct{}
	scrubOnce                                              sync.Once
	scrubPasses, scrubChecked, scrubCorrupt, scrubRepaired atomic.Int64

	// lat is the shard's per-operation latency histogram set, recording
	// only when Options.Metrics (or MetricsAddr) enabled it. The router
	// times each point op against the owning shard's set; the tree and
	// scheduler record their merge/stall/WAL series into the same set, so
	// Stats.Shards carries a complete per-shard latency breakdown and the
	// DB aggregate is the merge of these (plus the router-level set for
	// multi-shard ops).
	lat *obs.LatencySet

	// The shard's place in the DB's log, each number with one writer.
	// lastLogged is a lower bound on the sequence of the newest frame that
	// touches the shard: a writer stores it under writerMu before its frame
	// is written, replay stores the frame's own. ckptSeq is the sequence the
	// newest capture covers and ckptSeg the log's active segment at that
	// capture; durableSeq is the sequence the newest durable checkpoint
	// covers. The capture stores the first two (under writerMu) and persist
	// the third; at Open the manifest's sequence seeds both sequences.
	// The shard is dirty while lastLogged > ckptSeq (due has the
	// checkpointer's rule), and the log keeps every frame above durableSeq
	// while lastLogged > durableSeq (DB.gcWAL).
	lastLogged, ckptSeq, durableSeq atomic.Uint64
	ckptSeg                         atomic.Int64

	// ckptRunning is set while the checkpointer runs a checkpoint the
	// shard was due, so QueueDepth counts it until it is durable. ckptErr is
	// the first error of a checkpoint the checkpointer ran, for Close; only
	// the checkpointer writes it.
	ckptRunning atomic.Bool
	ckptErr     error

	// Completed checkpoints, their cumulative capture+persist time and the
	// manifest bytes they wrote.
	ckpts, ckptNanos, manifestBytes atomic.Int64
}

// shardPath derives shard id's device file path. Shard 0 keeps the
// user-visible Options.Path byte-for-byte — a single-shard store's file
// layout is exactly the unsharded engine's — and every further shard
// appends its index. The manifest path derives from this one
// (path+".manifest"); the DB's one log lives at Options.Path+".wal.*",
// shard 0's name, whatever the shard count.
func shardPath(path string, id int) string {
	if path == "" || id == 0 {
		return path
	}
	return fmt.Sprintf("%s.shard%d", path, id)
}

// openShard builds one shard: tree (fresh or restored from its manifest)
// and compaction scheduler. Replaying the DB's log into it is Open's next
// step (DB.openWAL). On error the shard's own resources are released; the
// caller tears down previously opened shards.
func (db *DB) openShard(id int) (*shard, error) {
	opts := db.opts
	s := &shard{id: id, db: db, path: shardPath(opts.Path, id), lat: &obs.LatencySet{}}
	s.lat.Enable(db.lat.Enabled())
	s.health = s.healthTracker()
	cfg := core.Config{
		// One policy instance per shard: policies carry mutable state (RR
		// cursors, Mixed thresholds) and each shard's merges run on its own
		// goroutines.
		Policy:          opts.buildPolicy(),
		BlockCapacity:   opts.RecordsPerBlock,
		K0:              opts.MemtableBlocks,
		Gamma:           opts.Gamma,
		Epsilon:         opts.Epsilon,
		CacheBlocks:     opts.CacheBlocks,
		BloomBitsPerKey: opts.BloomBitsPerKey,
		Seed:            opts.Seed,
		Shard:           id,
		Bus:             db.bus,
		Lat:             s.lat,
	}
	if opts.Paranoid {
		audit := midCascadeAudit(opts)
		cfg.Auditor = func(t *core.Tree) error {
			return invariant.Check(t, audit)
		}
	}

	restored := false
	if s.path != "" {
		st, err := manifest.Load(manifestPath(s.path))
		switch {
		case err == nil:
			if err := s.restore(cfg, st); err != nil {
				return nil, err
			}
			restored = true
		case errors.Is(err, manifest.ErrNoManifest):
			// fresh shard below
		default:
			return nil, err
		}
	}
	if !restored {
		if err := s.create(cfg); err != nil {
			return nil, err
		}
	}

	sched, err := compaction.New(compaction.Config{
		Tree:    s.tree,
		MergeMu: &s.mergeMu,
		Bus:     db.bus,
		Lat:     s.lat,
		Fail:    s.backgroundFailed,
	})
	if err != nil {
		return nil, errors.Join(err, s.raw.Close())
	}
	s.sched = sched
	s.startScrub()
	return s, nil
}

// wrapDevice builds the shard's device stack over base: the optional
// Options.DeviceWrap decoration (fault injection for tests and the
// chaos harness), then the transient-read retry layer, whose exhaustion
// callback demotes the shard. The result is what the tree and the
// checkpoint sync use; base stays in s.raw for close/reclaim.
func (s *shard) wrapDevice(base storage.Device) storage.Device {
	dev := base
	if w := s.db.opts.DeviceWrap; w != nil {
		dev = w(s.id, dev)
	}
	s.rdev = storage.NewRetryDevice(dev, retry.Policy{
		MaxAttempts: s.db.opts.ReadRetries,
		Seed:        s.db.opts.Seed + int64(s.id),
	}, func(err error) {
		s.health.Degrade("read-retries-exhausted", err)
	})
	s.dev = s.rdev
	return s.dev
}

// create sets the shard up over a fresh device.
func (s *shard) create(cfg core.Config) error {
	var dev storage.Device
	if s.path != "" {
		fd, err := storage.OpenFileDevice(s.path, s.db.opts.BlockSize)
		if err != nil {
			return err
		}
		dev = fd
	} else {
		dev = storage.NewMemDevice()
	}
	cfg.Device = s.wrapDevice(dev)
	tree, err := core.New(cfg)
	if err != nil {
		return errors.Join(err, dev.Close())
	}
	s.tree, s.raw = tree, dev
	return nil
}

// restore rebuilds the shard from its manifest over the existing device
// file, first checking that the on-disk shard identity and tree
// parameters match the requested options.
func (s *shard) restore(cfg core.Config, st manifest.State) error {
	opts := s.db.opts
	if st.Config.Shards != opts.Shards || st.Config.ShardID != s.id {
		return fmt.Errorf("lsmssd: %s was written as shard %d of a %d-shard store, but Options.Shards is %d (opening as shard %d); reopen with the shard count the store was created with",
			s.path, st.Config.ShardID, st.Config.Shards, opts.Shards, s.id)
	}
	want := manifest.Config{
		BlockCapacity: cfg.BlockCapacity,
		K0:            cfg.K0,
		Gamma:         cfg.Gamma,
		Epsilon:       cfg.Epsilon,
		Seed:          cfg.Seed,
	}
	if st.Config.BlockCapacity != want.BlockCapacity || st.Config.K0 != want.K0 ||
		st.Config.Gamma != want.Gamma || st.Config.Epsilon != want.Epsilon {
		return fmt.Errorf("lsmssd: options (B=%d K0=%d Γ=%d ε=%g) do not match manifest (B=%d K0=%d Γ=%d ε=%g)",
			want.BlockCapacity, want.K0, want.Gamma, want.Epsilon,
			st.Config.BlockCapacity, st.Config.K0, st.Config.Gamma, st.Config.Epsilon)
	}
	// The layout shaped the on-device runs (a tiered level holds several
	// sorted runs; a leveled one exactly one), so reopening under a
	// different layout would hand the tree a structure its invariants
	// reject. Refuse the skew instead of guessing.
	lay := cfg.Policy.Layout().Normalized()
	disk := policy.Layout{Kind: policy.LayoutKind(st.Config.Layout), TierRuns: st.Config.TierRuns}
	if lay != disk.Normalized() {
		return fmt.Errorf("lsmssd: options layout %s does not match manifest layout %s; reopen with the layout the store was written under",
			lay, disk.Normalized())
	}
	var live []storage.BlockID
	for _, runs := range st.Runs {
		for _, metas := range runs {
			for _, m := range metas {
				live = append(live, m.ID)
			}
		}
	}
	fd, err := storage.ReopenFileDevice(s.path, opts.BlockSize, live)
	if err != nil {
		return err
	}
	cfg.Device = s.wrapDevice(fd)
	tree, err := core.Restore(cfg, core.ExportedState{Runs: st.Runs, Memtable: st.Memtable})
	if err != nil {
		return errors.Join(err, fd.Close())
	}
	if opts.Paranoid {
		if err := invariant.CheckTree(tree); err != nil {
			return errors.Join(fmt.Errorf("lsmssd: restored state: %w", err), fd.Close())
		}
	}
	s.tree, s.raw = tree, fd
	s.ckptSeq.Store(st.WALSeq)
	s.durableSeq.Store(st.WALSeq)
	return nil
}

// checkpointImage is what a checkpoint captures under the writer lock and
// persists without it: the pinned snapshot the manifest will describe, the
// WAL sequence that snapshot includes, and how much of the device's limbo
// list predates it.
type checkpointImage struct {
	view    *core.View
	walSeq  uint64
	limbo   int
	capture time.Duration
}

// captureLocked freezes the state a checkpoint will persist. The caller
// holds writerMu, so view, WAL sequence and the limbo mark describe one
// instant. Only a file-backed shard checkpoints, so its device is a
// FileDevice and the DB has a log. It costs microseconds: the view is the
// copy-on-write snapshot readers already use, pinned until persist has
// read it out. It also records the log's active segment, from which the
// checkpointer counts the segments sealed since (due).
//
// The sequence is the log's newest, read under writerMu: every frame at or
// below it that touches this shard was written by a writer holding this
// lock from its append to its apply, so the view includes all of them.
// Under SyncEvery a frame is applied later, by its writer in the commit
// queue's turn, again under its shards' writer locks; so the sequence is
// capped at the queue's settled one. Every frame at or below
// that is applied (or failed), and none above it that touches this shard
// can be applied while the capture holds the lock. The checkpointer waits
// for the queue to settle first (commitQueue.awaitSettled), so the cap
// leaves out only frames logged after the capture began.
func (s *shard) captureLocked() (checkpointImage, error) {
	start := time.Now()
	// The tree's own acquire, not s.acquireView: Close checkpoints after the
	// DB is marked closed.
	v, err := s.tree.AcquireView()
	if err != nil {
		return checkpointImage{}, err
	}
	seq, seg := s.db.wal.Load().Position()
	if s.db.opts.WAL.Sync == SyncEvery {
		seq = min(seq, s.db.queue.settled.Load())
	}
	s.ckptSeq.Store(seq)
	s.ckptSeg.Store(int64(seg))
	img := checkpointImage{view: v, walSeq: seq, limbo: s.raw.(*storage.FileDevice).LimboMark()}
	img.capture = time.Since(start)
	return img, nil
}

// persist makes a captured image the shard's durable checkpoint and releases
// it. It takes no engine lock — the checkpointer runs it without writerMu,
// Close and the post-recovery checkpoint with it — so writes, reads and
// merges all proceed while the checkpointer runs it. The view is read out and
// released first: from then on merges may free blocks the image names,
// and the limbo mark, not the pin, is what keeps their slots from being
// reused. The durability horizon then advances in a fixed order, each step
// relying on the one before:
//
//  1. device sync — the manifest must never reference a block the device
//     could still lose (every block of the image was written before the
//     capture, hence before this sync started) — and log sync: the
//     manifest must never cover a frame the log could still lose, or a
//     power cut could keep a frame in this shard while losing it, or an
//     earlier one, in another (a no-op under SyncEvery);
//  2. manifest, recording the captured WAL sequence as the replay cutoff —
//     exactly the frames the captured memtable and levels include;
//  3. only now do block slots freed before the capture become reusable: no
//     manifest on disk names them any more. Slots freed since stay parked
//     until the next checkpoint, because this very manifest may name them;
//  4. only now may the log drop the segments this checkpoint covers: those
//     that every other shard's durable checkpoint covers too, as far as the
//     other shard has frames in them (DB.gcWAL).
func (s *shard) persist(img checkpointImage) error {
	start := time.Now()
	st := img.view.Export()
	img.view.Release()
	ev := obs.CheckpointEvent{Shard: s.id, WALSeq: img.walSeq, Capture: img.capture}
	t0 := time.Now()
	// Sync through the wrapped device, not s.raw, so injected sync faults
	// are observed and demote the shard: a checkpoint whose sync failed
	// must not advance the durability horizon, and a device that cannot
	// sync cannot promise durability for further writes either.
	if sy, ok := s.dev.(storage.Syncer); ok {
		if err := sy.Sync(); err != nil {
			s.health.DemoteReadOnly("sync-failed", err)
			return fmt.Errorf("lsmssd: syncing device before checkpoint: %w", err)
		}
	}
	if err := s.db.wal.Load().Sync(); err != nil {
		s.db.noteLogError(err)
		return fmt.Errorf("lsmssd: syncing write-ahead log before checkpoint: %w", err)
	}
	t1 := time.Now()
	cfg := s.tree.Config()
	lay := cfg.Policy.Layout().Normalized()
	n, err := manifest.Save(manifestPath(s.path), manifest.State{
		Config: manifest.Config{
			BlockCapacity: cfg.BlockCapacity,
			K0:            cfg.K0,
			Gamma:         cfg.Gamma,
			Epsilon:       cfg.Epsilon,
			Seed:          cfg.Seed,
			Shards:        s.db.opts.Shards,
			ShardID:       s.id,
			Layout:        int(lay.Kind),
			TierRuns:      lay.TierRuns,
		},
		WALSeq:   img.walSeq,
		Runs:     st.Runs,
		Memtable: st.Memtable,
	})
	if err != nil {
		return err
	}
	ev.ManifestBytes = n
	t2 := time.Now()
	ev.SlotsReclaimed = s.raw.(*storage.FileDevice).ReclaimFreed(img.limbo)
	s.durableSeq.Store(img.walSeq)
	removed, err := s.db.gcWAL()
	if err != nil {
		return fmt.Errorf("lsmssd: write-ahead log gc: %w", err)
	}
	ev.SegmentsRemoved = removed
	t3 := time.Now()
	s.ckpts.Add(1)
	s.ckptNanos.Add(int64(img.capture + t3.Sub(start)))
	s.manifestBytes.Add(n)
	if s.db.bus.Enabled() {
		ev.DeviceSync, ev.ManifestSave, ev.GC = t1.Sub(t0), t0.Sub(start)+t2.Sub(t1), t3.Sub(t2)
		s.db.bus.Publish(ev)
	}
	return nil
}

// checkpointLocked checkpoints inline: capture and persist with the writer
// lock held throughout, so the checkpoint is durable before the caller's
// next step. Only Close and the post-recovery checkpoint use it — callers
// that hold the lock anyway, that no writer can be waiting on, and that run
// only while the checkpointer does not, so checkpoints never overlap.
func (s *shard) checkpointLocked() error {
	if s.path == "" {
		return nil
	}
	img, err := s.captureLocked()
	if err != nil {
		return err
	}
	return s.persist(img)
}

// due reports whether the checkpointer owes the shard a checkpoint, given
// the log's active segment: the shard is dirty and Shards segments have
// been sealed since its capture. With one shard that is every rotation;
// under an even load over N shards every N rotations, once per
// SegmentBytes of the shard's own logged bytes; and a shard that stops
// writing is due N rotations after its capture, so an idle shard does not
// pin the log. The log holds about Shards+1 segments.
func (s *shard) due(segment int) bool {
	return s.lastLogged.Load() > s.ckptSeq.Load() && int64(segment)-s.ckptSeg.Load() >= int64(len(s.db.shards))
}

// checkpointOwed reports whether the shard is due a checkpoint or the
// checkpointer is running the one it was due: what QueueDepth counts. due
// is read first: a capture clears it only after ckptRunning is set.
func (s *shard) checkpointOwed() bool {
	log := s.db.wal.Load()
	if log == nil {
		return false
	}
	_, seg := log.Position()
	return s.due(seg) || s.ckptRunning.Load()
}

// paranoidSteadyCheck asserts the strict (post-cascade) bounds after a
// mutating request when Paranoid is set. It audits a snapshot acquired
// right after the request — L0 and the installed level image — so it reads no live
// level a merge step may be changing. Metadata only: the per-merge auditor
// already verified block contents and device accounting. The strictness is keyed off
// the scheduler's state, not the call position: with the background
// cascade still draining, the relaxed mid-cascade bounds apply.
func (s *shard) paranoidSteadyCheck() error {
	if !s.db.opts.Paranoid {
		return nil
	}
	o := invariant.Options{}
	if s.sched.Pending() {
		o = midCascadeAudit(s.db.opts)
	}
	v, err := s.tree.AcquireView()
	if err != nil {
		return err
	}
	defer v.Release()
	return invariant.CheckView(v, o)
}

// midCascadeAudit is the Paranoid audit for a shard whose cascade may be
// unfinished. A merge may land in a level whose own overflow the cascade
// has not reached yet, and the audit runs on the scheduler goroutine
// between concurrently admitted writes, so L0's bound is the scheduler's
// stall gate, compaction.StopBlocks.
func midCascadeAudit(o Options) invariant.Options {
	return invariant.Options{MidCascade: true, L0CapacityBlocks: compaction.StopBlocks(o.MemtableBlocks)}
}

// acquireView pins the shard's current read snapshot, translating a
// closed engine into the public sentinel. Callers must Release the
// returned view.
func (s *shard) acquireView() (*core.View, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	v, err := s.tree.AcquireView()
	if err != nil {
		return nil, ErrClosed
	}
	return v, nil
}

// pinView pins the shard's current read snapshot for one point read,
// translating a closed engine into the public sentinel. Callers must Unpin
// the returned pin.
func (s *shard) pinView() (*core.Pin, error) {
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	p, err := s.tree.PinView()
	if err != nil {
		return nil, ErrClosed
	}
	return p, nil
}

// validate checks the shard's structural invariants against its current
// snapshot, then the device-accounting cross-check under its merge lock,
// which keeps merge steps from allocating meanwhile.
func (s *shard) validate() error {
	v, err := s.acquireView()
	if err != nil {
		return err
	}
	defer v.Release()
	if err := v.Validate(); err != nil {
		return err
	}
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if s.db.closed.Load() {
		return ErrClosed
	}
	return s.tree.ValidateAccounting()
}

// forceGrow adds a storage level to this shard's tree.
func (s *shard) forceGrow() {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if s.db.closed.Load() {
		return
	}
	s.tree.ForceGrow()
}

// releaseLocked is the last per-shard step of DB.shutdown, which holds the
// shard's writer lock and has stopped its scheduler and the checkpointer. A
// clean close folds in the error of a failed background merge step or
// checkpoint and checkpoints; crash
// abandons the shard as a power cut would — no checkpoint, no device sync.
// Either way snapshot acquisition fails from here on and the device is
// closed. The log outlives every shard's release: the checkpoints GC it.
func (s *shard) releaseLocked(crash bool) error {
	var errs []error
	if !crash {
		errs = append(errs, s.sched.Err(), s.ckptErr, s.checkpointLocked())
	}
	s.tree.MarkClosed()
	return errors.Join(append(errs, s.raw.Close())...)
}
