// Package walordering seeds violations of the wal-ordering rule: the
// memtable apply must happen only after the wal append's error has been
// checked and found nil. The fixed shapes (check-then-apply and the
// WAL-disabled direct-apply path) ride along as negatives.
package walordering

import (
	"errors"

	"lsmssd/internal/block"
	"lsmssd/internal/core"
)

var errFull = errors.New("wal full")

type store struct {
	tree       *core.Tree
	walEnabled bool
}

// logMutation stands in for the DB layer's append helper (matched by
// name through Config.WALAppendHelpers).
func (s *store) logMutation(n int) error {
	if n < 0 {
		return errFull
	}
	return nil
}

func applyBeforeErrCheck(s *store) error {
	err := s.logMutation(1)
	perr := s.tree.Put(1, nil) // want wal-ordering
	if err != nil {
		return err
	}
	return perr
}

func applyOnFailedAppend(s *store) error {
	if err := s.logMutation(2); err != nil {
		_ = s.tree.Put(2, nil) // want wal-ordering
		return err
	}
	return s.tree.Put(2, nil)
}

func appendAfterApply(s *store) error {
	if err := s.tree.Put(3, nil); err != nil {
		return err
	}
	return s.logMutation(3) // want wal-ordering
}

func logThenApply(s *store) error {
	err := s.logMutation(4)
	if err != nil {
		return err
	}
	return s.tree.Put(4, nil)
}

func walDisabledPathIsFine(s *store) error {
	if s.walEnabled {
		if err := s.logMutation(5); err != nil {
			return err
		}
	}
	return s.tree.Put(5, nil)
}

// singleWritePath is the shape of the DB layer's one write path
// (shard.write): the append is skipped when no log is open or the batch is
// empty, its error lands in the named result by plain assignment, and the
// one tree mutation entry follows.
func singleWritePath(s *store, ops []block.Op) (err error) {
	if s.walEnabled && len(ops) > 0 {
		if err = s.logMutation(len(ops)); err != nil {
			return err
		}
	}
	return s.tree.ApplyBatch(ops)
}

func singleWritePathUnchecked(s *store, ops []block.Op) (err error) {
	if s.walEnabled && len(ops) > 0 {
		err = s.logMutation(len(ops))
	}
	if aerr := s.tree.ApplyBatch(ops); aerr != nil { // want wal-ordering
		return aerr
	}
	return err
}
