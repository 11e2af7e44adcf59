package lsmssd

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// WAL frame, committed per the sync policy (logLocked) → apply to every
// shard, notify their schedulers (applyLocked) → unlock. Holding the locks
// from the append to the apply keeps two properties: each shard applies
// frames in log order, and a write becomes visible only once it is as
// durable as the policy promises. Writers to different shards share
// nothing but the log, and under SyncEvery they share its fsyncs. Merges
// run on the shards' scheduler goroutines and checkpoints on the DB's
// checkpointer; one that fails demotes its shard (shard.backgroundFailed),
// and the health gate refuses later writes to it. A writer the failure
// releases from the stall gate finds the shard already demoted.
//
// A mutation is refused whole before anything is logged when any touched
// shard is read-only or fails admission. A health-relevant error is
// charged to the shard it came from — a log error to every shard, since
// they share the log.
//
// The span (nil when tracing is off) attributes the op's time: admission
// under PhaseStallWait (the pacing sleep and stall gate live inside
// Admit), the lock acquisition under PhaseLockWait, the frame write under
// PhaseWALAppend and the wait for its fsync under PhaseWALSync, the
// memtable inserts under PhaseMemtable, and the scheduler notifications — a
// gauge refresh and a wakeup, no merge work — under PhaseCascade.
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
	defer unlockShards(shards)
	sp.To(obs.PhaseOther)
	if db.closed.Load() {
		return ErrClosed
	}
	if log := db.wal.Load(); log != nil && len(frame) > 0 {
		if err := db.logLocked(log, frame, shards, lat, sp); err != nil {
			return err
		}
	}
	return db.applyLocked(byShard, shards, sp)
}

// logLocked writes frame to the log and commits it per the sync policy. A
// logging failure means the mutation was never made durable, so the caller
// must fail it without touching any tree. The caller holds the writer lock
// of every shard in shards.
//
// Before the frame is written each shard records a lower bound on its
// sequence (markLoggingLocked), so neither the checkpointer's rule nor the
// log's GC can miss it. A frame that sealed a segment wakes the
// checkpointer (rotated) even when its own write then failed, so the
// sealed segment is still covered and collected.
func (db *DB) logLocked(log *wal.Log, frame []block.Op, shards []*shard, lat *obs.LatencySet, sp *obs.Span) error {
	for _, s := range shards {
		s.markLoggingLocked(log)
	}
	sp.To(obs.PhaseWALAppend)
	start := lat.Start()
	seq, rotated, err := log.Write(frame)
	if err == nil {
		sp.To(obs.PhaseWALSync)
		err = log.Commit(seq)
	}
	lat.Done(obs.OpWALAppend, start)
	sp.To(obs.PhaseOther)
	if rotated {
		db.rotated()
	}
	if err != nil {
		db.noteLogError(err)
		return fmt.Errorf("lsmssd: write-ahead log append: %w", err)
	}
	return nil
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
// due one, or of every shard with all set. Each holds its shard's writer
// lock for the capture only; the fsyncs happen after it is dropped. A
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
