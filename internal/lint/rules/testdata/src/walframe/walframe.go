// Package walframe seeds violations of the wal-frame rule: driving the
// write-ahead log's mutating entry points from outside the durability
// layer, which would break the acked-write contract (frames must be
// appended before the tree applies them and garbage-collected only after
// a durable checkpoint).
package walframe

import (
	"lsmssd/internal/wal"
)

func appendDirectly(l *wal.Log, ops []wal.Op) error {
	_, _, err := l.Append(ops) // want wal-frame
	return err
}

func writeDirectly(l *wal.Log, ops []wal.Op) error {
	seq, _, err := l.Write(ops) // want wal-frame
	if err != nil {
		return err
	}
	return l.Commit(seq) // want wal-frame
}

func syncDirectly(l *wal.Log) error {
	return l.Sync() // want wal-frame
}

func collectDirectly(l *wal.Log, seq uint64) error {
	_, err := l.GC(seq) // want wal-frame
	return err
}

func cutPowerDirectly(l *wal.Log) error {
	return l.Crash() // want wal-frame
}

func readingIsFine(l *wal.Log) int64 {
	// Inspecting the log carries no durability authority; only mutating
	// it is restricted. Replay and segment listing are likewise free.
	has, err := wal.HasFramesAfter("db.wal", 0)
	if err != nil || has {
		return l.Stats().Appends
	}
	return l.Stats().Appends
}

// A method named Append on an unrelated type must not trip the rule.
type journal struct{}

func (journal) Append(ops []wal.Op) error { return nil }

func unrelatedAppend(ops []wal.Op) error {
	var j journal
	return j.Append(ops)
}
