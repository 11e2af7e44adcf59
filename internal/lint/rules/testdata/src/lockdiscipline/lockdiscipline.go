// Package lockdiscipline seeds violations of the lock-discipline rule:
// core.Tree mutations not dominated by writerMu.Lock, and exit paths
// that keep the lock. The fixed shapes (defer, acquire and release
// helpers, Locked-suffix convention, escaping unlock, storage-level
// changes under the merge lock alone) ride along as negatives.
package lockdiscipline

import (
	"sync"

	"lsmssd/internal/core"
)

type store struct {
	mergeMu  sync.Mutex
	writerMu sync.Mutex
	tree     *core.Tree
}

func unguarded(s *store) {
	s.tree.Put(1, nil) // want lock-discipline
}

func unguardedBatch(s *store) {
	s.tree.ApplyBatch(nil) // want lock-discipline
}

func unguardedDeleteAndClose(s *store) {
	s.tree.Delete(1)    // want lock-discipline
	s.tree.MarkClosed() // want lock-discipline
}

// Merge steps, growth and repairs change the storage levels, which the
// merge lock guards; they take no writer lock.
func growAndRepair(s *store) error {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	s.tree.ForceGrow()
	_, err := s.tree.RepairBlock(1)
	return err
}

func unguardedOnOnePath(s *store, fast bool) {
	if !fast {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	s.tree.Delete(2) // want lock-discipline
}

func leakOnEarlyReturn(s *store, n int) { // want lock-discipline
	s.writerMu.Lock()
	if n == 0 {
		return
	}
	s.tree.Put(3, nil)
	s.writerMu.Unlock()
}

func deferredUnlock(s *store) {
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.tree.Put(4, nil)
}

func unlockOnEveryPath(s *store, n int) {
	s.writerMu.Lock()
	if n == 0 {
		s.writerMu.Unlock()
		return
	}
	s.tree.Put(5, nil)
	s.writerMu.Unlock()
}

func throughHelper(s *store) {
	shards := []*store{s}
	lockShards(shards)
	defer unlockShards(shards)
	s.tree.Put(6, nil)
}

// lockShards and unlockShards are the acquire and release helpers.
func lockShards(shards []*store) {
	for _, s := range shards {
		s.writerMu.Lock()
	}
}

func unlockShards(shards []*store) {
	for _, s := range shards {
		s.writerMu.Unlock()
	}
}

// handBack hands the caller the release obligation; the escaping unlock
// waives the exit check here.
func (s *store) handBack() func() {
	s.writerMu.Lock()
	return s.writerMu.Unlock
}

// applyLocked follows the caller-holds-lock suffix convention.
func applyLocked(s *store) {
	s.tree.Delete(7)
}

// The checkpoint split. captureLocked is on the LockHeldFuncs table: its
// call sites are checked, not just its body exempted. persist is on the
// LockFreeFuncs table: callers hold the lock or not, so it may not take it.

type image struct{ seq uint64 }

func (s *store) captureLocked() image { return image{} }

func (s *store) persist(img image) error {
	s.writerMu.Lock() // want lock-discipline
	defer s.writerMu.Unlock()
	return nil
}

func captureWithoutLock(s *store) image {
	return s.captureLocked() // want lock-discipline
}

func captureAfterUnlock(s *store) image {
	s.writerMu.Lock()
	s.writerMu.Unlock()
	return s.captureLocked() // want lock-discipline
}

func captureThenPersistOffLock(s *store) error {
	s.writerMu.Lock()
	img := s.captureLocked()
	s.writerMu.Unlock()
	return persistFixed(s, img)
}

// checkpointLocked holds the lock throughout, by the suffix convention.
func checkpointLocked(s *store) error {
	return persistFixed(s, s.captureLocked())
}

// persistFixed is the fixed shape: no engine lock taken.
func persistFixed(s *store, img image) error { return nil }
