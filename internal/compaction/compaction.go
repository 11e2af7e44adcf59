// Package compaction owns merge scheduling: it is the only non-test code
// allowed to drive core.Tree's overflow cascade (CompactionStep /
// RunCascade — the lsmlint compaction-step rule enforces the boundary).
// There are two executors:
//
//   - Scheduler, the DB's: writers land records in L0 and Notify it; its
//     goroutine — the only thing that runs cascade steps on a DB's tree —
//     drains the cascade one core.Tree.CompactionStep at a time under the
//     shard's merge lock alone, while writers land records in L0 and
//     readers consume published snapshots (DESIGN.md §13.4 is the lock
//     table). Writers are paced by LevelDB-style backpressure on L0's
//     size, derived from the tree's K0: from 2·K0 blocks each admission
//     sleeps 1 ms; from 4·K0 (StopBlocks) it blocks until the goroutine
//     catches up (the hard stall gate).
//   - Driver, for bare trees (the figures, the parameter learner): every
//     mutation runs the cascade to completion before returning.
//
// Both run CompactionStep, so a Scheduler waited idle (WaitIdle) after
// every write performs exactly Driver's merge sequence: the paper's cost
// model, and its BlocksWritten accounting byte for byte, are reproduced
// through a DB by draining, not by a second executor.
//
// Checkpoints are not the scheduler's: the DB runs them on a goroutine of
// its own, so a merge never waits behind a checkpoint's fsyncs.
//
// Error contract: the first failed merge step ends the goroutine. It calls
// Config.Fail once — the DB demotes the shard to read-only there — then
// parks the error and releases the writers gated at the stop trigger,
// whose Admit returns it. Writes never poll for it otherwise: below the
// gate Admit and Notify read no error. WaitIdle returns the parked error,
// and DB.Close folds it into its own.
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
	// MergeMu is the shard's merge lock, which guards the storage levels.
	// Required; the goroutine holds it for each whole step and for nothing
	// else.
	MergeMu sync.Locker
	// Bus receives StallEvents; may be nil (events are gated on
	// subscription as everywhere else).
	Bus *obs.Bus
	// Lat records stall durations under obs.OpStall; may be nil.
	Lat *obs.LatencySet
	// Fail, when set, is called once from the goroutine with the error of
	// the merge step that ended it, before gated writers are released. No
	// more merges run after it.
	Fail func(error)
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

	// Stall gate. gateMu guards err and orders the gauge refreshes; a
	// writer at the stop trigger reads l0Blocks under it, so no refresh
	// falls between its check and its wait. The condition variable wakes
	// writers parked at the stop trigger when the scheduler drains L0,
	// fails, or shuts down (atomics alone would lose wakeups).
	gateMu sync.Mutex
	gate   *sync.Cond
	err    error // the failed merge step that ended the goroutine

	// Gauges and counters, atomics so Stats stays lock-free. The gauges
	// are stored only in refresh, under gateMu.
	queueDepth    atomic.Int64
	l0Blocks      atomic.Int64
	steps         atomic.Int64
	slowdowns     atomic.Int64
	stops         atomic.Int64
	slowdownNanos atomic.Int64
	stopNanos     atomic.Int64
}

// New builds a scheduler and starts its goroutine.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Tree == nil || cfg.MergeMu == nil {
		return nil, errors.New("compaction: Config.Tree and Config.MergeMu are required")
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
	// backlog gates admissions correctly from the first write.
	s.refresh()
	go s.run()
	return s, nil
}

// Admit applies write-path backpressure; writers call it before taking
// their own locks (it may sleep or block). Below the slowdown trigger it is
// one atomic load. It returns an error only to a writer gated at the stop
// trigger that a failed merge step released: the error that ended the
// goroutine, reported after Config.Fail ran.
func (s *Scheduler) Admit() error {
	switch l0 := int(s.l0Blocks.Load()); {
	case l0 >= s.stop:
		return s.waitBelowStop()
	case l0 >= s.slowdown:
		start := time.Now()
		time.Sleep(pacingSleep)
		s.recordStall("slowdown", s.slowdown, &s.slowdowns, &s.slowdownNanos, time.Since(start))
	}
	return nil
}

// waitBelowStop parks the writer until L0 drops back under the stop
// threshold, a merge step fails, or the scheduler stops.
func (s *Scheduler) waitBelowStop() error {
	start := time.Now()
	s.gateMu.Lock()
	for int(s.l0Blocks.Load()) >= s.stop && s.err == nil && !s.stopping.Load() {
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
// created: it refreshes the gauges and wakes the goroutine if merge work is
// pending.
func (s *Scheduler) Notify() {
	s.refresh()
	if s.Pending() {
		select {
		case s.wake <- struct{}{}:
		default: // a wakeup is already queued
		}
	}
}

// refresh recomputes the gauges from L0 and the installed level image and
// pokes the stall gate. A writer's Notify and the goroutine's refresh
// after a step race; reading the tree and storing the gauges in one gateMu
// critical section makes the last store the one that read the newest
// state, so a stale zero queue depth never outlives a write that queued
// work (WaitIdle would return early, and the goroutine would sleep on it).
func (s *Scheduler) refresh() {
	s.gateMu.Lock()
	depth, l0 := s.cfg.Tree.CompactionBacklog()
	s.l0Blocks.Store(int64(l0))
	s.queueDepth.Store(int64(depth))
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

// run is the scheduler goroutine: sleep until woken, then run the pending
// cascade one step at a time (step). The first failure ends the goroutine
// (fail).
func (s *Scheduler) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.wake:
		}
		for !s.stopping.Load() && s.Pending() {
			if err := s.step(); err != nil {
				s.fail(err)
				return
			}
		}
	}
}

// step runs one cascade step under the merge lock, then refreshes the
// gauges.
func (s *Scheduler) step() error {
	s.cfg.MergeMu.Lock()
	defer s.cfg.MergeMu.Unlock()
	acted, err := s.cfg.Tree.CompactionStep()
	if acted {
		s.steps.Add(1)
	}
	s.refresh()
	return err
}

// fail ends the goroutine's work on err: Config.Fail first, so a writer the
// gate releases finds the shard demoted, then the parked error and the
// release.
func (s *Scheduler) fail(err error) {
	if s.cfg.Fail != nil {
		s.cfg.Fail(err)
	}
	s.gateMu.Lock()
	s.err = err
	s.gateMu.Unlock()
	s.gate.Broadcast()
}

// Err returns the error of the merge step that ended the goroutine, or
// nil. For Close, which folds it into its own result.
func (s *Scheduler) Err() error {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	return s.err
}

// errStopped is WaitIdle's report that the scheduler stopped with work
// still queued.
var errStopped = errors.New("compaction: scheduler stopped")

// WaitIdle returns once the scheduler is idle: no merge step outstanding
// (Snapshot's QueueDepth is zero). It returns the parked error if a step
// fails first, and an error if the scheduler stops first. The caller must not hold the merge lock. Idle
// is a moment, not a state: the next write may queue
// work again. Called after every write, it makes a DB perform exactly
// Driver's merge sequence.
func (s *Scheduler) WaitIdle() error {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	for s.queueDepth.Load() != 0 {
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
func (s *Scheduler) Pending() bool { return s.queueDepth.Load() > 0 }

// Stop halts the scheduler: no further step starts, the one in flight (if
// any) completes, gated writers are released, and Stop returns once the
// goroutine has exited. Callers must NOT hold the merge lock — the
// goroutine may need it to finish. Idempotent. An interrupted cascade is
// completed by Restore on reopen.
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
	QueueDepth   int   // overflowing merge sources awaiting work
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
		QueueDepth:   int(s.queueDepth.Load()),
		L0Blocks:     int(s.l0Blocks.Load()),
		Steps:        s.steps.Load(),
		Slowdowns:    s.slowdowns.Load(),
		Stops:        s.stops.Load(),
		SlowdownTime: time.Duration(s.slowdownNanos.Load()),
		StopTime:     time.Duration(s.stopNanos.Load()),
	}
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
	d.Tree.Put(k, payload)
	return d.Tree.RunCascade()
}

// Delete removes k and drains the cascade.
func (d Driver) Delete(k block.Key) error {
	d.Tree.Delete(k)
	return d.Tree.RunCascade()
}

// Scan ranges over [lo, hi], satisfying workload.Scanner so scan-heavy
// generators can drive the read path. Read-only: no cascade to drain.
func (d Driver) Scan(lo, hi block.Key, fn func(k block.Key, payload []byte) bool) error {
	return d.Tree.Scan(lo, hi, fn)
}
