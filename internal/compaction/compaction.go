// Package compaction owns merge scheduling: it is the only non-test code
// allowed to drive core.Tree's overflow cascade (CompactionStep /
// RunCascade — the lsmlint compaction-step rule enforces the boundary).
// There are two executors:
//
//   - Scheduler, the DB's: writers land records in L0 and Notify it; its
//     goroutine — the only thing that runs cascade steps on a DB's tree —
//     drains the cascade one step at a time. Each step holds the shard's
//     merge lock throughout and its writer lock only to plan and to
//     install (core.Tree.PlanStep, InstallStep): the block I/O in between
//     (ExecuteStep) runs while writers land records in L0 and readers
//     consume published snapshots. Writers are paced by LevelDB-style
//     backpressure on L0's size, derived from the tree's K0: from 2·K0
//     blocks each admission sleeps 1 ms; from 4·K0 (StopBlocks) it blocks
//     until the goroutine catches up (the hard stall gate).
//   - Driver, for bare trees (the figures, the parameter learner): every
//     mutation runs the cascade to completion before returning.
//
// Both run the same three phases in the same step order, so a Scheduler
// waited idle (WaitIdle) after every write performs exactly Driver's merge
// sequence: the paper's cost model, and its BlocksWritten accounting byte
// for byte, are reproduced through a DB by draining, not by a second
// executor.
//
// The goroutine also carries the shard's other background work, so the
// engine has one background protocol per shard, not several:
//
//   - checkpoints: a writer whose WAL append sealed a segment calls
//     RequestCheckpoint on each shard due one and returns; the goroutine
//     runs Config.Checkpoint between merge steps, with neither lock held
//     across it.
//     Requests coalesce, and one arriving while a checkpoint runs yields
//     one more run. A requested-or-running checkpoint counts one unit of
//     QueueDepth, so "drained" means "and checkpointed";
//   - the idle tick (when Config.Tick is set): called every TickInterval —
//     the DB uses it to fsync a WAL tail that went idle under the interval
//     sync policy.
//
// Error contract: a failed merge step, checkpoint or tick parks the error;
// every subsequent Admit/Notify returns it, and DB.Close folds it into its
// own error, so background failures surface on the next write or at Close —
// never silently.
package compaction

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"lsmssd/internal/block"
	"lsmssd/internal/core"
	"lsmssd/internal/obs"
)

// Admission is LevelDB's two-threshold gate on L0's size, in multiples of
// the tree's L0 capacity K0 (blocks): from slowdownK0·K0 each admission
// pays pacingSleep, from stopK0·K0 it blocks.
const (
	slowdownK0  = 2
	stopK0      = 4
	pacingSleep = time.Millisecond
)

// StopBlocks is the L0 size, in blocks, at which Admit blocks writers to a
// tree whose L0 holds k0 blocks: 4·k0. The DB's Paranoid auditor takes its
// L0 bound from here.
func StopBlocks(k0 int) int { return stopK0 * k0 }

// Config parameterizes a Scheduler.
type Config struct {
	// Tree is the engine to compact. Required.
	Tree *core.Tree
	// Mu is the DB's writer lock, which guards L0 and the installed level
	// image. Required; the goroutine takes it to plan a step and again to
	// install it, never across the step's block I/O, so writers interleave
	// with a step and with a draining cascade.
	Mu sync.Locker
	// MergeMu is the shard's merge lock, which guards the storage levels.
	// Required; the goroutine holds it for each whole step, and takes it
	// before Mu.
	MergeMu sync.Locker
	// Bus receives StallEvents; may be nil (events are gated on
	// subscription as everywhere else).
	Bus *obs.Bus
	// Lat records stall durations under obs.OpStall; may be nil.
	Lat *obs.LatencySet
	// Checkpoint persists the engine's state; the goroutine calls it once
	// per coalesced RequestCheckpoint, with Mu not held (the callback takes
	// it briefly itself). Required if RequestCheckpoint is ever called.
	Checkpoint func() error
	// Tick, when set with a positive TickInterval, is called from the
	// goroutine every TickInterval between other work.
	Tick         func() error
	TickInterval time.Duration
}

// Scheduler drives a Tree's overflow cascade per its Config. All methods
// are safe for concurrent use. The zero value is not usable; call New.
type Scheduler struct {
	cfg Config

	// The stall gate's thresholds in L0 blocks, fixed at New.
	slowdown, stop int

	// Goroutine machinery. wake is buffered so Notify never blocks;
	// stopping gates new work, stopCh interrupts the run loop, done
	// closes when the goroutine exits.
	wake     chan struct{}
	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	stopping atomic.Bool

	// Stall gate. gateMu guards l0Gate and err; the condition variable
	// wakes writers parked at the stop trigger when the scheduler drains
	// L0, fails, or shuts down (atomics alone would lose wakeups).
	gateMu sync.Mutex
	gate   *sync.Cond
	l0Gate int
	err    error // first failed merge step, checkpoint or tick; sticky

	// Checkpoint requests are generations: a request bumps ckptWant, the
	// goroutine copies the value it read before running into ckptDone
	// afterwards. A request that arrives mid-run leaves the two unequal, so
	// it is neither lost nor run twice.
	ckptWant, ckptDone atomic.Int64

	// Gauges and counters, atomics so Stats stays lock-free.
	queueDepth    atomic.Int64
	l0Blocks      atomic.Int64
	pendingWork   atomic.Bool
	steps         atomic.Int64
	slowdowns     atomic.Int64
	stops         atomic.Int64
	slowdownNanos atomic.Int64
	stopNanos     atomic.Int64
}

// New builds a scheduler and starts its goroutine.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Tree == nil || cfg.Mu == nil || cfg.MergeMu == nil {
		return nil, errors.New("compaction: Config.Tree, Config.Mu and Config.MergeMu are required")
	}
	k0 := cfg.Tree.CapacityBlocks(0)
	s := &Scheduler{
		cfg:      cfg,
		slowdown: slowdownK0 * k0,
		stop:     StopBlocks(k0),
		wake:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.gate = sync.NewCond(&s.gateMu)
	// Seed the gauges from the tree so a scheduler built over an existing
	// backlog gates admissions correctly from the first write. New runs
	// before any concurrency, so reading the tree here is safe without Mu.
	s.refreshLocked()
	go s.run()
	return s, nil
}

// Admit applies write-path backpressure; writers call it before taking
// the writer lock (it may sleep or block, and the scheduler needs the
// lock to install the progress being waited for). It returns any parked
// background error; below the gate that is all it does.
func (s *Scheduler) Admit() error {
	if err := s.Err(); err != nil {
		return err
	}
	switch l0 := int(s.l0Blocks.Load()); {
	case l0 >= s.stop:
		return s.waitBelowStop()
	case l0 >= s.slowdown:
		start := time.Now()
		time.Sleep(pacingSleep)
		s.recordStall("slowdown", s.slowdown, &s.slowdowns, &s.slowdownNanos, time.Since(start))
		return s.Err()
	}
	return nil
}

// waitBelowStop parks the writer until L0 drops back under the stop
// threshold, a merge fails, or the scheduler stops.
func (s *Scheduler) waitBelowStop() error {
	start := time.Now()
	s.gateMu.Lock()
	for s.l0Gate >= s.stop && s.err == nil && !s.stopping.Load() {
		s.gate.Wait()
	}
	err := s.err
	s.gateMu.Unlock()
	s.recordStall("stop", s.stop, &s.stops, &s.stopNanos, time.Since(start))
	return err
}

func (s *Scheduler) recordStall(kind string, trigger int, n, nanos *atomic.Int64, d time.Duration) {
	n.Add(1)
	nanos.Add(int64(d))
	s.cfg.Lat.Observe(obs.OpStall, d)
	if s.cfg.Bus.Enabled() {
		s.cfg.Bus.Publish(obs.StallEvent{
			Kind:     kind,
			L0Blocks: int(s.l0Blocks.Load()),
			Trigger:  trigger,
			Duration: d,
		})
	}
}

// Notify hands the scheduler the overflow work a mutation may have
// created. The caller holds the writer lock. Notify refreshes the gauges,
// wakes the goroutine if merge work is pending, and returns any parked
// background error.
func (s *Scheduler) Notify() error {
	s.refreshLocked()
	if s.pendingWork.Load() {
		s.signal()
	}
	return s.Err()
}

// RequestCheckpoint asks the goroutine to run Config.Checkpoint and returns
// at once; any number of requests before the next run are served by that
// one run.
func (s *Scheduler) RequestCheckpoint() {
	s.ckptWant.Add(1)
	s.signal()
}

// signal wakes the goroutine without blocking.
func (s *Scheduler) signal() {
	select {
	case s.wake <- struct{}{}:
	default: // a wakeup is already queued
	}
}

// refreshLocked recomputes the gauges from L0 and the installed level
// image and pokes the stall gate. The caller holds the writer lock (that
// state is only stable under it).
func (s *Scheduler) refreshLocked() {
	l0 := s.cfg.Tree.L0Blocks()
	depth := s.cfg.Tree.CompactionBacklog()
	s.l0Blocks.Store(int64(l0))
	s.queueDepth.Store(int64(depth))
	s.pendingWork.Store(depth > 0)
	s.gateMu.Lock()
	s.l0Gate = l0
	s.gateMu.Unlock()
	s.gate.Broadcast()
}

// broadcast wakes every goroutine parked on the gate after a change of
// state it waits on. The caller changed that state before the call; taking
// gateMu orders the change before a waiter's next check.
func (s *Scheduler) broadcast() {
	s.gateMu.Lock()
	s.gateMu.Unlock()
	s.gate.Broadcast()
}

// run is the scheduler goroutine: sleep until woken or ticked, then run
// what is due — a requested checkpoint, then the pending cascade one step
// at a time (step), with a checkpoint requested mid-drain served between
// steps. The first failure parks and ends the goroutine.
func (s *Scheduler) run() {
	defer close(s.done)
	var tick <-chan time.Time
	if s.cfg.Tick != nil && s.cfg.TickInterval > 0 {
		t := time.NewTicker(s.cfg.TickInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stopCh:
			return
		case <-tick:
			if err := s.cfg.Tick(); err != nil {
				s.fail(err)
				return
			}
			continue
		case <-s.wake:
		}
		for {
			if s.stopping.Load() {
				return
			}
			if want := s.ckptWant.Load(); want != s.ckptDone.Load() {
				if err := s.cfg.Checkpoint(); err != nil {
					s.fail(err)
					return
				}
				s.ckptDone.Store(want)
				s.broadcast()
				continue
			}
			if !s.pendingWork.Load() {
				break
			}
			if err := s.step(); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// step runs one cascade step under the merge lock: plan under the writer
// lock, execute (the policy's window choice and the block I/O) without it,
// install under it again. A step that fails to execute leaves the tree as
// it was, so the gauges need no refresh.
func (s *Scheduler) step() error {
	s.cfg.MergeMu.Lock()
	defer s.cfg.MergeMu.Unlock()
	s.cfg.Mu.Lock()
	st := s.cfg.Tree.PlanStep()
	if st == nil {
		s.refreshLocked()
		s.cfg.Mu.Unlock()
		return nil
	}
	s.cfg.Mu.Unlock()
	if err := s.cfg.Tree.ExecuteStep(st); err != nil {
		return err
	}
	s.cfg.Mu.Lock()
	defer s.cfg.Mu.Unlock()
	err := s.cfg.Tree.InstallStep(st)
	s.steps.Add(1)
	s.refreshLocked()
	return err
}

// fail parks the first background error and releases any gated writers.
func (s *Scheduler) fail(err error) {
	s.gateMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.gateMu.Unlock()
	s.gate.Broadcast()
}

// Err returns the parked background error (merge step, checkpoint or
// tick), or nil. Sticky: once one fails the scheduler goroutine has exited
// and every subsequent write reports the failure.
func (s *Scheduler) Err() error {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	return s.err
}

// errStopped is WaitIdle's report that the scheduler stopped with work
// still queued.
var errStopped = errors.New("compaction: scheduler stopped")

// WaitIdle returns once the scheduler is idle: no merge step and no
// checkpoint outstanding (Snapshot's QueueDepth is zero). It returns the
// parked error if a step, checkpoint or tick fails first, and an error if
// the scheduler stops first. The caller must hold neither the writer nor
// the merge lock. Idle is a moment, not a state: the next write may queue
// work again. Called after every write, it makes a DB perform exactly
// Driver's merge sequence.
func (s *Scheduler) WaitIdle() error {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	for s.queueDepth.Load() != 0 || s.checkpointPending() != 0 {
		if s.err != nil {
			return s.err
		}
		if s.stopping.Load() {
			return errStopped
		}
		s.gate.Wait()
	}
	return nil
}

// Pending reports whether merge work is outstanding as of the last
// refresh; the DB keys its mid-cascade-vs-steady invariant audits off
// this.
func (s *Scheduler) Pending() bool { return s.pendingWork.Load() }

// Stop halts the scheduler: no further step, checkpoint or tick starts,
// the one in flight (if any) completes, gated writers are released, and
// Stop returns once the goroutine has exited. Callers must NOT hold the
// writer or merge lock — the goroutine may need them to finish. Idempotent. A
// checkpoint request still pending is dropped (a clean Close checkpoints
// inline afterwards), and an interrupted cascade is completed by Restore
// on reopen.
func (s *Scheduler) Stop() {
	s.stopOnce.Do(func() {
		s.stopping.Store(true)
		s.broadcast()
		close(s.stopCh)
		<-s.done
	})
}

// Stats is a point-in-time snapshot of the scheduler's accounting.
type Stats struct {
	QueueDepth   int   // overflowing merge sources awaiting work, plus one for a requested-or-running checkpoint
	L0Blocks     int   // L0 size at the last refresh, in blocks
	Steps        int64 // cascade steps executed by the goroutine
	Slowdowns    int64 // admissions that paid the pacing sleep
	Stops        int64 // admissions that blocked on the hard gate
	SlowdownTime time.Duration
	StopTime     time.Duration
}

// Snapshot returns the current Stats. Lock-free.
func (s *Scheduler) Snapshot() Stats {
	return Stats{
		QueueDepth:   int(s.queueDepth.Load()) + s.checkpointPending(),
		L0Blocks:     int(s.l0Blocks.Load()),
		Steps:        s.steps.Load(),
		Slowdowns:    s.slowdowns.Load(),
		Stops:        s.stops.Load(),
		SlowdownTime: time.Duration(s.slowdownNanos.Load()),
		StopTime:     time.Duration(s.stopNanos.Load()),
	}
}

// checkpointPending is 1 while a requested checkpoint has not finished.
func (s *Scheduler) checkpointPending() int {
	if s.ckptWant.Load() != s.ckptDone.Load() {
		return 1
	}
	return 0
}

// ResetCounters zeroes the cumulative counters (steps, stalls, stall
// time), aligning the scheduler's series with the DB's uniform
// measurement window on ResetIOStats. Gauges are left alone.
func (s *Scheduler) ResetCounters() {
	s.steps.Store(0)
	s.slowdowns.Store(0)
	s.stops.Store(0)
	s.slowdownNanos.Store(0)
	s.stopNanos.Store(0)
}

// Driver is the bare-tree executor: it adapts a Tree without a DB around
// it to the synchronous request semantics the paper's cost model assumes —
// every mutation runs the overflow cascade to completion before returning.
// The experiment harness, the parameter learner and the benchmark's layer
// probes drive trees through it (it satisfies workload.Store), while the
// cascade entry points stay confined to this package. A Scheduler drained
// after every write performs the same merge sequence. Single-writer, like
// the Tree itself.
type Driver struct {
	Tree *core.Tree
}

// Put inserts k and drains the cascade.
func (d Driver) Put(k block.Key, payload []byte) error {
	if err := d.Tree.Put(k, payload); err != nil {
		return err
	}
	return d.Tree.RunCascade()
}

// Delete removes k and drains the cascade.
func (d Driver) Delete(k block.Key) error {
	if err := d.Tree.Delete(k); err != nil {
		return err
	}
	return d.Tree.RunCascade()
}

// Scan ranges over [lo, hi], satisfying workload.Scanner so scan-heavy
// generators can drive the read path. Read-only: no cascade to drain.
func (d Driver) Scan(lo, hi block.Key, fn func(k block.Key, payload []byte) bool) error {
	return d.Tree.Scan(lo, hi, fn)
}
