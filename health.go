package lsmssd

// Fault-domain isolation and graceful degradation (DESIGN.md §16). Each
// shard carries a health state machine (internal/health): transient
// device read errors retry through a bounded backoff (internal/retry via
// storage.RetryDevice) before counting against the shard; exhaustion
// demotes it to Degraded. Write-side faults whose causes a running shard
// cannot clear — ENOSPC, a poisoned WAL, a merge blocked on quarantined
// corruption, a failed device sync — demote only the affected shard to
// ReadOnly: its reads, snapshots, and iterators keep serving while its
// writes fail fast with ErrShardReadOnly, and sibling shards stay fully
// writable. A background scrubber (Options.ScrubInterval) walks each
// shard's live blocks at a paced rate verifying device checksums,
// quarantines corrupt blocks, repairs them from a surviving cached copy
// when one exists, and promotes a clean Degraded shard back to Healthy.

import (
	"cmp"
	"errors"
	"fmt"
	"lsmssd/internal/block"
	"syscall"
	"time"

	"lsmssd/internal/core"
	"lsmssd/internal/health"
	"lsmssd/internal/obs"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

// ErrShardReadOnly is returned by Put, Delete, and Apply when the key's
// owning shard has been demoted to read-only (or failed) by a fault —
// out of space, a poisoned write-ahead log, or unrepaired corruption
// blocking compaction. Reads keep serving; other shards keep accepting
// writes. Test with errors.Is; the concrete *ShardReadOnlyError carries
// the shard index and cause.
var ErrShardReadOnly = errors.New("lsmssd: shard is read-only")

// ShardReadOnlyError is the concrete error behind ErrShardReadOnly,
// naming the demoted shard and the fault that demoted it.
type ShardReadOnlyError struct {
	Shard int    // which shard refused the write
	State string // "read-only" or "failed"
	Cause string // machine-stable cause tag, e.g. "enospc", "wal-poisoned"
	Err   error  // the error that triggered the demotion, may be nil
}

func (e *ShardReadOnlyError) Error() string {
	msg := fmt.Sprintf("lsmssd: shard %d is %s (%s)", e.Shard, e.State, e.Cause)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes both the public sentinel and the demoting fault, so
// errors.Is(err, ErrShardReadOnly) and errors.Is(err, ErrCorrupt)-style
// cause checks both work.
func (e *ShardReadOnlyError) Unwrap() []error {
	if e.Err == nil {
		return []error{ErrShardReadOnly}
	}
	return []error{ErrShardReadOnly, e.Err}
}

// classifyWriteError maps a mutation-path error to the health transition
// it warrants. Pure: unit-testable without filesystem control. Returns
// Healthy (no transition) for errors that carry no health meaning —
// ErrClosed, validation failures, a caller's bad batch.
func classifyWriteError(err error) (to health.State, cause string) {
	switch {
	case err == nil:
		return health.Healthy, ""
	case errors.Is(err, wal.ErrPoisoned):
		// A failed WAL fsync: durability of acknowledged writes can no
		// longer be promised, and only recovery (reopen) clears it.
		return health.ReadOnly, "wal-poisoned"
	case errors.Is(err, storage.ErrNoSpace) || errors.Is(err, syscall.ENOSPC):
		return health.ReadOnly, "enospc"
	case errors.Is(err, core.ErrQuarantined):
		// The cascade cannot proceed past quarantined corruption; writes
		// would pile up in L0 unboundedly.
		return health.ReadOnly, "quarantined-compaction"
	case errors.Is(err, storage.ErrCorrupt):
		// Corruption surfaced outside the scrubber (a merge read). The
		// shard keeps serving — the scrubber will quarantine and try to
		// repair — but the fault is on the record.
		return health.Degraded, "corrupt-read"
	}
	return health.Healthy, ""
}

// writable fails fast when the shard no longer accepts writes, before
// any admission pacing or lock acquisition.
func (s *shard) writable() error {
	st := s.health.State()
	if st < health.ReadOnly {
		return nil
	}
	cause, err := s.health.Cause()
	return &ShardReadOnlyError{Shard: s.id, State: st.String(), Cause: cause, Err: err}
}

// noteWriteError applies the health transition a mutation-path error
// warrants, if any. Demotions are idempotent per state (the tracker
// rejects non-worsening transitions), so callers invoke this on every
// error path without dedup.
func (s *shard) noteWriteError(err error) {
	to, cause := classifyWriteError(err)
	switch to {
	case health.ReadOnly:
		s.health.DemoteReadOnly(cause, err)
	case health.Degraded:
		s.health.Degrade(cause, err)
	}
}

// backgroundFailed demotes the shard after a background failure: as the
// shard scheduler's Config.Fail, a merge step failed and the scheduler runs
// no more merges, so L0 would grow without bound; from the checkpointer, a
// checkpoint failed, so the shard's durability horizon no longer advances.
// The demotion is to read-only, with the classified cause when the error
// has one and "background-failed" otherwise, and comes before the
// scheduler releases writers gated on it.
func (s *shard) backgroundFailed(err error) {
	_, cause := classifyWriteError(err)
	s.health.DemoteReadOnly(cmp.Or(cause, "background-failed"), err)
}

// noteReadError records a read-path integrity failure: corruption on a
// still-writable shard degrades it (the scrubber takes over); on a shard
// already demoted to ReadOnly it means reads can no longer be trusted
// either, which is terminal until reopen.
func (s *shard) noteReadError(err error) {
	if err == nil || !errors.Is(err, storage.ErrCorrupt) {
		return
	}
	if s.health.State() >= health.ReadOnly {
		s.health.Fail("corrupt-read-while-read-only", err)
		return
	}
	s.health.Degrade("corrupt-read", err)
}

// healthTracker builds the shard's tracker, publishing every accepted
// transition as a HealthEvent on the DB's bus.
func (s *shard) healthTracker() *health.Tracker {
	return health.NewTracker(func(tr health.Transition) {
		if !s.db.bus.Enabled() {
			return
		}
		ev := obs.HealthEvent{Shard: s.id, From: tr.From.String(), To: tr.To.String(), Cause: tr.Cause}
		if tr.Err != nil {
			ev.Err = tr.Err.Error()
		}
		s.db.bus.Publish(ev)
	})
}

// QuarantinedBlock describes one corrupt block a shard has quarantined:
// pinned on the device and excluded from merges until repaired.
type QuarantinedBlock struct {
	Block  uint64 // device block ID
	Level  int    // 1-based level holding the block when quarantined
	Reason string // why (error text from the failed verification)
}

// ShardHealth is one shard's fault-domain state in a health report.
type ShardHealth struct {
	Shard       int
	State       string // "healthy", "degraded", "read-only", "failed"
	Cause       string // cause tag of the last transition, "" when healthy since Open
	Err         string // text of the triggering error, "" if none
	Quarantined []QuarantinedBlock
}

// HealthReport aggregates shard health: State is the worst shard's.
type HealthReport struct {
	State  string
	Shards []ShardHealth
}

// Health reports each shard's health state, the cause of its last
// transition, and its quarantined blocks. Lock-free; usable while the
// DB serves traffic. Shards degrade and recover independently — a
// read-only or failed entry here means that shard's keys reject writes
// (ErrShardReadOnly) while every other shard is unaffected.
func (db *DB) Health() HealthReport {
	rep := HealthReport{Shards: make([]ShardHealth, 0, len(db.shards))}
	worst := health.Healthy
	for _, s := range db.shards {
		st := s.health.State()
		if st > worst {
			worst = st
		}
		cause, err := s.health.Cause()
		sh := ShardHealth{Shard: s.id, State: st.String(), Cause: cause}
		if err != nil {
			sh.Err = err.Error()
		}
		for _, q := range s.tree.Quarantined() {
			sh.Quarantined = append(sh.Quarantined, QuarantinedBlock{
				Block: uint64(q.ID), Level: q.Level, Reason: q.Reason,
			})
		}
		rep.Shards = append(rep.Shards, sh)
	}
	rep.State = worst.String()
	return rep
}

// startScrub launches the shard's background scrubber when
// Options.ScrubInterval is set. Stopped by stopScrub before teardown.
func (s *shard) startScrub() {
	if s.db.opts.ScrubInterval <= 0 {
		return
	}
	s.scrubQuit = make(chan struct{})
	s.scrubDone = make(chan struct{})
	go s.scrubLoop()
}

// stopScrub halts the scrubber and waits for it to drain. Idempotent;
// a no-op when the scrubber never started.
func (s *shard) stopScrub() {
	if s.scrubDone == nil {
		return
	}
	s.scrubOnce.Do(func() { close(s.scrubQuit) })
	<-s.scrubDone
}

// scrubLoop runs one verification pass per ScrubInterval tick until
// stopped.
func (s *shard) scrubLoop() {
	defer close(s.scrubDone)
	tick := time.NewTicker(s.db.opts.ScrubInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.scrubQuit:
			return
		case <-tick.C:
		}
		s.scrubPass()
	}
}

// scrubMaxPace is the longest pause between two block verifications of a
// scrub pass.
const scrubMaxPace = 500 * time.Microsecond

// scrubEntry is one block to verify in a pass.
type scrubEntry struct {
	id    storage.BlockID
	level int
}

// scrubPass verifies every live block of the shard's current snapshot
// against the device, pausing between blocks so that the pass spreads over
// at most one ScrubInterval (and never pauses longer than scrubMaxPace, the
// bound on its read pressure). Holding the view
// for the whole pass pins its blocks (frees defer through the snapshot
// protocol), so every enumerated ID stays readable. Verification goes
// through Peek — below the buffer cache, uncounted, unretried — into one
// buffer the pass reuses for every block, so the pass observes the
// device's real state, perturbs no I/O statistics and allocates nothing
// per block.
//
// A corrupt block is quarantined and a repair attempted under the merge
// lock: when the cache still holds a surviving copy the block is
// rewritten fresh and the quarantine lifts; otherwise it stays
// quarantined and the shard demotes to Degraded. A pass that finds
// nothing corrupt, with an empty quarantine, promotes a Degraded shard
// back to Healthy.
func (s *shard) scrubPass() {
	start := time.Now()
	v, err := s.acquireView()
	if err != nil {
		return // closing
	}
	defer v.Release()
	var entries []scrubEntry
	for _, lv := range v.Levels() {
		for _, run := range lv.Runs {
			for _, m := range run {
				entries = append(entries, scrubEntry{id: m.ID, level: lv.Number})
			}
		}
	}
	pace := scrubMaxPace
	if n := len(entries); n > 0 {
		pace = min(pace, s.db.opts.ScrubInterval/time.Duration(n))
	}
	checked, corrupt, repaired := 0, 0, 0
	var blk block.Block
	for _, e := range entries {
		select {
		case <-s.scrubQuit:
			return
		default:
		}
		checked++
		if perr := s.dev.Peek(e.id, &blk); perr != nil {
			if !errors.Is(perr, storage.ErrCorrupt) {
				continue // transient; the retry layer owns these on real reads
			}
			corrupt++
			s.tree.Quarantine(e.id, e.level, perr.Error())
			s.mergeMu.Lock()
			ok, rerr := s.tree.RepairBlock(e.id)
			s.mergeMu.Unlock()
			switch {
			case rerr != nil:
				s.health.Degrade("scrub-repair-failed", rerr)
			case ok:
				repaired++
			default:
				s.health.Degrade("scrub-corruption", fmt.Errorf("lsmssd: shard %d block %d: %w", s.id, e.id, perr))
			}
		}
		if pace > 0 {
			select {
			case <-s.scrubQuit:
				return
			case <-time.After(pace):
			}
		}
	}
	quarantined := s.tree.QuarantinedCount()
	if corrupt == 0 && quarantined == 0 {
		s.health.Promote("scrub-clean")
	}
	s.scrubPasses.Add(1)
	s.scrubChecked.Add(int64(checked))
	s.scrubCorrupt.Add(int64(corrupt))
	s.scrubRepaired.Add(int64(repaired))
	if s.db.bus.Enabled() {
		s.db.bus.Publish(obs.ScrubEvent{
			Shard:       s.id,
			Checked:     checked,
			Corrupt:     corrupt,
			Repaired:    repaired,
			Quarantined: quarantined,
			Duration:    time.Since(start),
		})
	}
}
