package lsmssd

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lsmssd/internal/block"
	"lsmssd/internal/obs"
	"lsmssd/internal/wal"
)

// The write path and the DB's one write-ahead log. Every mutation — Put,
// Delete, a whole Apply, and each replayed frame at Open — runs through
// commit, whichever shards it touches and whatever the sync policy.

// write runs one mutation through commit under the op's latency series and
// phase span: the owning shard's when it touches one shard (Put and Delete
// always), the DB's router-level ones (span shard -1) when an Apply spans
// several. frame is the mutation's ops in request order, as logged;
// byShard the same ops grouped by shard in the order of shards (split).
// Neither slice is retained, so Put and Delete's one-element ops stay on
// the caller's stack.
func (db *DB) write(op obs.Op, frame, byShard []block.Op, shards []*shard) error {
	for _, o := range frame {
		if len(o.Value) > block.MaxPayload {
			return fmt.Errorf("lsmssd: a %d-byte value for key %d exceeds the %d-byte limit of the block format", len(o.Value), o.Key, block.MaxPayload)
		}
	}
	lat, id := db.lat, -1
	if len(shards) == 1 {
		lat, id = shards[0].lat, shards[0].id
	}
	start := lat.Start()
	sp := db.tracer.Start(op, id)
	err := db.commit(frame, byShard, shards, lat, sp)
	sp.Finish()
	lat.Done(op, start)
	return err
}

// commit is the DB's one durability protocol: health gate and admission on
// every touched shard → their writer locks, ascending → closed check → one
// WAL frame (logLocked) → apply to every shard, notify their schedulers
// (applyLocked) → unlock. Each shard applies frames in log order, and a
// write becomes visible only once it is as durable as the policy promises.
// Writers to different shards share nothing but the log. Merges run on the
// shards' scheduler goroutines and checkpoints on the DB's checkpointer;
// one that fails demotes its shard (shard.backgroundFailed), and the health
// gate refuses later writes to it. A writer the failure releases from the
// stall gate finds the shard already demoted.
//
// The one fork is at the fsync. Under SyncInterval and SyncNever no commit
// syncs, and the frame is applied under the writer locks, as written.
// Under SyncEvery the frame joins the commit queue in log order, the locks
// are dropped, the queue's leader fsyncs every queued frame at once (lead),
// and each writer then applies its own frame, in sequence order, under its
// shards' writer locks again (applyTurn). So writers share fsyncs whichever
// shards they touch, and no shard lock is held across one.
//
// A mutation is refused whole before anything is logged when any touched
// shard is read-only or fails admission. A health-relevant error is
// charged to the shard it came from — a log error to every shard, since
// they share the log.
//
// The span (nil when tracing is off) attributes the op's time: admission
// under PhaseStallWait (the pacing sleep and stall gate live inside
// Admit), the lock acquisition under PhaseLockWait, the frame write under
// PhaseWALAppend and the wait for its fsync — the leader's, or its own as
// the leader — under PhaseWALSync, the memtable inserts under
// PhaseMemtable, and the scheduler notifications — a gauge refresh and a
// wakeup, no merge work — under PhaseCascade.
func (db *DB) commit(frame, byShard []block.Op, shards []*shard, lat *obs.LatencySet, sp *obs.Span) error {
	for _, s := range shards {
		if err := s.writable(); err != nil {
			return err
		}
	}
	sp.To(obs.PhaseStallWait)
	for _, s := range shards {
		if err := s.sched.Admit(); err != nil {
			// The failure that released the stall gate demoted the shard
			// first: report that, as every later write will.
			return cmp.Or(s.writable(), err)
		}
	}
	sp.To(obs.PhaseLockWait)
	lockShards(shards)
	n, lead, err := db.commitLocked(frame, byShard, shards, lat, sp)
	unlockShards(shards)
	if n == nil {
		return err
	}
	return db.await(n, lead, sp)
}

// commitLocked is commit's work under the writer locks. It returns the
// frame's queue node when the frame joined the commit queue, and whether
// its writer leads it; the caller then drops the locks and awaits it.
func (db *DB) commitLocked(frame, byShard []block.Op, shards []*shard, lat *obs.LatencySet, sp *obs.Span) (n *queued, lead bool, err error) {
	sp.To(obs.PhaseOther)
	if db.closed.Load() {
		return nil, false, ErrClosed
	}
	if log := db.wal.Load(); log != nil && len(frame) > 0 {
		if n, lead, err = db.logLocked(log, frame, byShard, shards, lat, sp); n != nil || err != nil {
			return n, lead, err
		}
	}
	return nil, false, db.applyLocked(byShard, shards, sp)
}

// logLocked writes frame to the log and commits it per the sync policy. A
// logging failure means the mutation was never made durable, so the caller
// must fail it without touching any tree. Under SyncEvery the frame is
// not synced here: it joins the commit queue, and logLocked returns its
// node. The caller holds the writer lock of every shard in shards.
//
// Before the frame is written each shard records a lower bound on its
// sequence (markLoggingLocked), so neither the checkpointer's rule nor the
// log's GC can miss it. A frame that sealed a segment wakes the
// checkpointer (rotated) even when its own write then failed, so the
// sealed segment is still covered and collected.
func (db *DB) logLocked(log *wal.Log, frame, byShard []block.Op, shards []*shard, lat *obs.LatencySet, sp *obs.Span) (n *queued, lead bool, err error) {
	for _, s := range shards {
		s.markLoggingLocked(log)
	}
	sp.To(obs.PhaseWALAppend)
	start := lat.Start()
	var rotated bool
	if db.opts.WAL.Sync == SyncEvery {
		n, lead, rotated, err = db.queue.write(log, frame, byShard, shards, lat, start)
	} else {
		var seq uint64
		seq, rotated, err = log.Write(frame)
		if err == nil {
			err = log.Commit(seq)
		}
		lat.Done(obs.OpWALAppend, start)
	}
	sp.To(obs.PhaseOther)
	if rotated {
		db.rotated()
	}
	if err == ErrClosed {
		return nil, false, err
	}
	if err != nil {
		db.noteLogError(err)
		return nil, false, fmt.Errorf("lsmssd: write-ahead log append: %w", err)
	}
	return n, lead, nil
}

// queued is one frame in the commit queue: written to the log, waiting for
// the fsync that covers it and for its turn to apply. Nodes are the DB's
// and are reused (commitQueue.free), and a node keeps the frame's ops and
// shards in buffers of its own, so a queued commit allocates nothing once
// the queue has been as deep as it gets: Put's one-element slices stay on
// its stack.
type queued struct {
	seq    uint64
	ops    []block.Op // the frame's ops grouped by shard, as applyLocked takes them
	shards []*shard
	lat    *obs.LatencySet
	start  time.Time // when the write began, for OpWALAppend
	err    error     // the commit's outcome: the fsync's, then the apply's
	lead   bool      // the writer leads the next group
	next   *queued   // the frame after this one in its group, whose turn follows
	// wake is the writer's signal to go on: it is to lead, its frame's
	// turn to apply has come, or its group's fsync failed. Buffered, so the
	// sender never blocks.
	wake chan struct{}
}

// commitQueue is the group commit of SyncEvery writers (DESIGN.md §13.4).
// A writer writes its frame and enqueues it under mu, so the queue's order
// is the log's; the writer that finds no leader syncing leads. A leader
// takes every queued frame as its group and fsyncs them with one
// wal.Log.Commit. It then hands the lead to the head of what queued
// meanwhile. The group's writers apply their own frames one after
// another, in sequence order, and a group is taken only once the one
// before it has applied, so every shard applies frames in log order.
type commitQueue struct {
	mu      sync.Mutex
	waiting []*queued // written frames no leader has taken yet, in log order
	group   []*queued // the frames taken by the leader, its own first
	free    []*queued
	active  int  // writers between their frame's write and their return
	syncing bool // a leader is syncing a group, or the head of waiting has been told to lead
	closed  bool // shutdown: no frame joins from here on
	// taken is set while a group is taken and not yet settled: at most one
	// is, since a leader takes its group only once the one before settled.
	taken  bool
	settle sync.Cond // broadcast on mu as each group settles

	// settled is the sequence up to which every frame written under
	// SyncEvery is applied: each writer stores its frame's under the
	// frame's writer locks, once it is applied. A capture waits for it to
	// reach the log's position (awaitSettled) and caps its sequence here
	// (shard.captureLocked).
	settled atomic.Uint64
}

// write writes frame to the log and enqueues it under mu, so that queue
// order is log order. lead reports that no leader was syncing, so the
// writer leads. Nothing is written once shutdown closed the queue.
func (q *commitQueue) write(log *wal.Log, frame, byShard []block.Op, shards []*shard, lat *obs.LatencySet, start time.Time) (n *queued, lead, rotated bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, false, false, ErrClosed
	}
	seq, rotated, err := log.Write(frame)
	if err != nil {
		return nil, false, rotated, err
	}
	if k := len(q.free); k > 0 {
		n, q.free = q.free[k-1], q.free[:k-1]
	} else {
		n = &queued{wake: make(chan struct{}, 1)}
	}
	n.seq, n.lat, n.start, n.err = seq, lat, start, nil
	n.ops = append(n.ops[:0], byShard...)
	n.shards = append(n.shards[:0], shards...)
	n.lead = !q.syncing
	q.syncing = true
	q.waiting = append(q.waiting, n)
	q.active++
	return n, n.lead, rotated, nil
}

// await returns the outcome of n's commit. The writer leads the group n
// heads — at once when no leader was syncing (lead), or when the leader
// before it hands it the lead — or waits until its frame's turn comes or
// its group's fsync failed. A durable frame it then applies itself
// (applyTurn). The node goes back to the free list.
func (db *DB) await(n *queued, lead bool, sp *obs.Span) error {
	q := &db.queue
	sp.To(obs.PhaseWALSync)
	if !lead {
		<-n.wake
		lead = n.lead
	}
	if lead {
		db.lead()
	}
	if n.err == nil {
		db.applyTurn(n, sp)
	}
	sp.To(obs.PhaseOther)
	err := n.err
	clear(n.ops) // the values it points at are the caller's
	q.mu.Lock()
	q.free = append(q.free, n)
	q.active--
	q.mu.Unlock()
	return err
}

// lead syncs a group: every frame queued when it is taken, the leader's
// own first. The leader's frame's turn to apply comes when lead returns.
//
// A leader first waits for the group before it to settle. Then, if other
// writers are in the queue, it yields once before it takes its group: the
// writers the last group released often write again at once, and their
// frames then join this group instead of queueing behind its fsync
// (DESIGN.md §13.4 has the numbers). A lone writer does not yield: with
// merges running, a yield can cost it a scheduler time slice.
//
// One fsync covers the group (wal.Log.Commit of its newest frame); then the
// lead passes to the head of what queued meanwhile. If the fsync failed,
// every commit in the group fails, none is applied, and the log error is
// charged once.
func (db *DB) lead() {
	q := &db.queue
	q.mu.Lock()
	for q.taken {
		q.settle.Wait()
	}
	if q.active > 1 {
		q.mu.Unlock()
		runtime.Gosched()
		q.mu.Lock()
	}
	q.group, q.waiting = q.waiting, q.group[:0]
	group := q.group
	for i, m := range group {
		m.next = nil
		if i+1 < len(group) {
			m.next = group[i+1]
		}
	}
	q.taken = true
	q.mu.Unlock()

	last := group[len(group)-1].seq
	err := db.wal.Load().Commit(last)
	for _, m := range group {
		m.lat.Done(obs.OpWALAppend, m.start)
	}
	if err != nil {
		db.noteLogError(err)
		err = fmt.Errorf("lsmssd: write-ahead log append: %w", err)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.syncing = len(q.waiting) > 0; q.syncing {
		next := q.waiting[0]
		next.lead = true
		next.wake <- struct{}{}
	}
	if err != nil {
		for _, m := range group {
			m.err = err
		}
		for _, m := range group[1:] {
			m.wake <- struct{}{}
		}
		q.taken = false
		q.settle.Broadcast()
	}
}

// applyTurn applies n's durable frame, its turn come: every frame before
// it is applied. It runs under the frame's writer locks, as a commit that
// does not sync applies under its own (applyLocked: pubMu across several
// shards, Notify, the Paranoid audit). Then the turn passes to the next
// frame of the group, or, after its last, the group has settled.
func (db *DB) applyTurn(n *queued, sp *obs.Span) {
	q := &db.queue
	sp.To(obs.PhaseLockWait)
	lockShards(n.shards)
	n.err = db.applyLocked(n.ops, n.shards, sp)
	q.settled.Store(n.seq)
	unlockShards(n.shards)
	q.mu.Lock()
	defer q.mu.Unlock()
	if n.next != nil {
		n.next.wake <- struct{}{}
		return
	}
	q.taken = false
	q.settle.Broadcast()
}

// busyLocked reports whether a group is syncing or applying, or a writer
// has been told to lead one. The caller holds mu.
func (q *commitQueue) busyLocked() bool {
	return q.syncing || q.taken
}

// close refuses every later frame and waits until the queued ones have
// settled: shutdown's first step under SyncEvery, before it takes any
// writer lock, since a queued frame's writer takes its own again to apply.
func (q *commitQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for q.busyLocked() {
		q.settle.Wait()
	}
}

// awaitSettled waits until every frame up to seq has settled, or no frame
// is queued any more (a failed frame never settles). The
// checkpointer calls it before a capture, holding no lock, so the capture
// covers every frame logged before it began.
func (q *commitQueue) awaitSettled(seq uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.busyLocked() && q.settled.Load() < seq {
		q.settle.Wait()
	}
}

// applyLocked lands a logged mutation: each shard's ops go into its L0,
// all of them under pubMu when there are several shards, so a reader sees
// the whole mutation or none of it; then each shard's scheduler is
// notified and, under Paranoid, the shard audited. Every shard is audited
// even when one fails its audit, and the first failure is returned. The
// caller holds the writer lock of every shard in shards.
func (db *DB) applyLocked(byShard []block.Op, shards []*shard, sp *obs.Span) error {
	sp.To(obs.PhaseMemtable)
	if len(shards) > 1 {
		db.pubMu.Lock()
	}
	rest := byShard
	for _, s := range shards {
		var ops []block.Op
		ops, rest = db.cut(rest, s)
		s.tree.ApplyBatch(ops)
	}
	if len(shards) > 1 {
		db.pubMu.Unlock()
	}
	sp.To(obs.PhaseCascade)
	var first error
	for _, s := range shards {
		s.sched.Notify()
		if err := s.paranoidSteadyCheck(); err != nil {
			s.noteWriteError(err)
			if first == nil {
				first = err
			}
		}
	}
	sp.To(obs.PhaseOther)
	return first
}

// cut splits off the head of byShard that belongs to s: byShard is grouped
// by shard (split), and s is the shard its head belongs to, if any.
func (db *DB) cut(byShard []block.Op, s *shard) (ops, rest []block.Op) {
	n := 0
	for n < len(byShard) && byShard[n].Key&db.mask == uint64(s.id) {
		n++
	}
	return byShard[:n], byShard[n:]
}

// markLoggingLocked stores, before a frame touching the shard is written,
// a lower bound on that frame's sequence: the log's newest plus one. The
// first frame after a capture may make the shard due a checkpoint at once —
// the log sealed Shards segments while the shard had nothing to cover —
// and then wakes the checkpointer, so a due shard always has a wake-up
// pending. The caller holds writerMu, which orders this against the
// capture.
func (s *shard) markLoggingLocked(log *wal.Log) {
	seq, seg := log.Position()
	clean := s.lastLogged.Load() <= s.ckptSeq.Load()
	s.lastLogged.Store(seq + 1)
	if clean && s.due(seg) {
		s.db.wakeCheckpointer()
	}
}

// rotated reacts to a sealed segment: it publishes the rotation and wakes
// the checkpointer, which runs the checkpoints the seal made due (shard.due).
func (db *DB) rotated() {
	if db.bus.Enabled() {
		ws := db.wal.Load().Stats()
		db.bus.Publish(obs.WALEvent{Kind: "rotate", Segments: ws.Segments, LastSeq: ws.NextSeq - 1})
	}
	db.wakeCheckpointer()
}

// wakeCheckpointer asks the checkpointer for a pass over the shards due a
// checkpoint, without blocking: wake-ups made while one is queued or a pass
// runs coalesce into one more pass.
func (db *DB) wakeCheckpointer() {
	select {
	case db.ckptWake <- struct{}{}:
	default:
	}
}

// checkpointer is the goroutine that runs every checkpoint of a running
// file-backed store, one at a time, so manifests reach the disk in capture
// order and the log's GC has one caller. A wake-up runs the checkpoint of
// each shard then due; a DB.Checkpoint request runs every shard's and gets
// their joined errors back. Merges never wait for it: they run on the
// shards' schedulers.
func (db *DB) checkpointer() {
	defer db.bg.Done()
	for {
		var req chan error
		select {
		case <-db.quit:
			return
		case <-db.ckptWake:
		case req = <-db.ckptReq:
		}
		err := db.checkpointShards(req != nil)
		if req != nil {
			req <- err
		}
	}
}

// checkpointShards runs, on the checkpointer, the checkpoint of every shard
// due one, or of every shard with all set. Each first waits, holding no
// lock, for the frames logged so far to settle (queued frames are applied
// under the writer locks), then holds its shard's writer lock for the
// capture only; the fsyncs happen after it is dropped. A
// failed checkpoint demotes only its own shard (shard.backgroundFailed) and
// is kept for Close; the other shards are still served.
func (db *DB) checkpointShards(all bool) error {
	log := db.wal.Load()
	var errs []error
	for _, s := range db.shards {
		_, seg := log.Position()
		due := s.due(seg)
		if !due && !all {
			continue
		}
		s.ckptRunning.Store(due)
		db.queue.awaitSettled(log.LastSeq())
		s.writerMu.Lock()
		img, err := s.captureLocked()
		s.writerMu.Unlock()
		if err == nil {
			err = s.persist(img)
		}
		s.ckptRunning.Store(false)
		if err != nil {
			s.backgroundFailed(err)
			if s.ckptErr == nil {
				s.ckptErr = err
			}
			errs = append(errs, shardErr(s.id, err))
		}
	}
	return errors.Join(errs...)
}

// gcWAL drops the sealed segments no shard needs for recovery any more:
// those at or below the smallest durableSeq among the shards that logged a
// frame after their newest durable checkpoint. A shard with no such frame
// needs nothing, however old its checkpoint. The log's newest sequence is
// read before the shards' marks: a writer that has not stored its mark yet
// gets a sequence above it. Only the checkpointer calls it, or Close and
// the post-recovery checkpoint while it is not running.
func (db *DB) gcWAL() (removed int, err error) {
	log := db.wal.Load()
	upTo := log.LastSeq()
	for _, s := range db.shards {
		if d := s.durableSeq.Load(); s.lastLogged.Load() > d {
			upTo = min(upTo, d)
		}
	}
	removed, err = log.GC(upTo)
	if removed > 0 && db.bus.Enabled() {
		db.bus.Publish(obs.WALEvent{Kind: "gc", Segments: log.Stats().Segments, Removed: removed, LastSeq: upTo})
	}
	return removed, err
}

// noteLogError applies a log failure's health transition to every shard:
// they share the log, so after a failed fsync (a poisoned log) or a full
// disk none of them can promise durability.
func (db *DB) noteLogError(err error) {
	for _, s := range db.shards {
		s.noteWriteError(err)
	}
}

// startBackground starts the goroutines that serve the DB's log once Open's
// replay has opened it: the checkpointer, and under SyncInterval
// intervalSync. stopBackground, in shutdown, stops them before any lock is
// taken and before the log closes.
func (db *DB) startBackground() {
	log := db.wal.Load()
	if log == nil {
		return
	}
	db.bg.Add(1)
	go db.checkpointer()
	if db.opts.WAL.Sync == SyncInterval {
		db.bg.Add(1)
		go db.intervalSync(log)
	}
}

// stopBackground halts the background goroutines and waits for them to
// exit; a checkpoint in flight completes first. Idempotent; a no-op for
// goroutines that never started.
func (db *DB) stopBackground() {
	db.quitOnce.Do(func() { close(db.quit) })
	db.bg.Wait()
}

// intervalSync fsyncs the log every WAL.Interval, whatever it holds
// unsynced — a no-op when nothing is — so under SyncInterval no commit
// syncs, and the frames written before a pause are durable within an
// interval as surely as those of a busy log. A failed sync poisons the
// log: the goroutine demotes every shard (noteLogError) and exits.
func (db *DB) intervalSync(log *wal.Log) {
	defer db.bg.Done()
	tick := time.NewTicker(db.opts.WAL.Interval)
	defer tick.Stop()
	for {
		select {
		case <-db.quit:
			return
		case <-tick.C:
		}
		if err := log.Sync(); err != nil {
			db.noteLogError(err)
			return
		}
	}
}

// openWAL performs crash recovery and positions the DB's log for
// appending.
//
// Replay reads the log from the oldest shard checkpoint on and pushes each
// frame's operations through commit, shard by shard, skipping a shard
// whose checkpoint already covers the frame. The log is not published yet
// (db.wal holds nil), which is what makes commit skip the append. Every shard
// that replayed anything is then checkpointed, so recovery converges
// instead of replaying an ever-longer log.
func (db *DB) openWAL() error {
	path := db.opts.Path
	if path == "" {
		return nil
	}
	if err := refuseShardLogs(path); err != nil {
		return err
	}
	base := walBase(path)
	from, to := db.shards[0].ckptSeq.Load(), db.shards[0].ckptSeq.Load()
	for _, s := range db.shards[1:] {
		from, to = min(from, s.ckptSeq.Load()), max(to, s.ckptSeq.Load())
	}
	start := time.Now()
	replayed := make([]bool, len(db.shards))
	info, err := wal.Replay(base, from, func(seq uint64, ops []wal.Op) error {
		rest, shards := db.split(ops, nil, nil)
		for _, s := range shards {
			var part []block.Op
			part, rest = db.cut(rest, s)
			if seq <= s.ckptSeq.Load() {
				continue
			}
			s.lastLogged.Store(seq)
			replayed[s.id] = true
			if err := db.commit(nil, part, []*shard{s}, s.lat, nil); err != nil {
				return shardErr(s.id, err)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lsmssd: write-ahead log replay: %w", err)
	}
	log, err := wal.Open(base, max(info.LastSeq, to)+1, wal.Options{
		Policy:       wal.SyncPolicy(db.opts.WAL.Sync),
		SegmentBytes: db.opts.WAL.SegmentBytes,
	})
	if err != nil {
		return fmt.Errorf("lsmssd: write-ahead log open: %w", err)
	}
	db.wal.Store(log)
	db.queue.settled.Store(log.LastSeq())
	db.recovery = WALRecoveryStats{
		Recovered: info.Frames > 0 || info.TornBytes > 0,
		Segments:  info.Segments,
		Frames:    info.Frames,
		Ops:       info.Ops,
		TornBytes: info.TornBytes,
	}
	_, seg := log.Position()
	for _, s := range db.shards {
		s.ckptSeg.Store(int64(seg))
		if !replayed[s.id] {
			continue
		}
		s.writerMu.Lock()
		err := s.checkpointLocked()
		s.writerMu.Unlock()
		if err != nil {
			return fmt.Errorf("lsmssd: post-recovery checkpoint: %w", shardErr(s.id, err))
		}
	}
	if db.bus.Enabled() {
		db.bus.Publish(obs.RecoveryEvent{
			Segments:  info.Segments,
			Frames:    info.Frames,
			Ops:       info.Ops,
			TornBytes: info.TornBytes,
			Duration:  time.Since(start),
		})
	}
	return nil
}

// refuseShardLogs fails Open on a store that still has a per-shard log
// segment (Path + ".shard<i>.wal.*"), left by a version that gave every
// shard its own log. This version reads only Path + ".wal.*", so the
// frames in such a segment would be silently lost.
func refuseShardLogs(path string) error {
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("lsmssd: inspecting write-ahead log: %w", err)
	}
	for _, e := range entries {
		if rest, ok := strings.CutPrefix(e.Name(), name+".shard"); ok && strings.Contains(rest, ".wal.") {
			return fmt.Errorf("lsmssd: %s is a per-shard write-ahead log segment, which this version does not read (the shards now share %s.wal.*); open the store with the version that wrote it, Close it cleanly, and delete the per-shard segments",
				filepath.Join(dir, e.Name()), path)
		}
	}
	return nil
}
