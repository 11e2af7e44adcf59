// Package compactionstep seeds violations of the compaction-step rule:
// driving core.Tree's merge cascade from a package outside the compaction
// scheduling layer, bypassing backpressure and error parking.
package compactionstep

import (
	"lsmssd/internal/core"
)

func stepDirectly(t *core.Tree) error {
	_, err := t.CompactionStep() // want compaction-step
	return err
}

func drainDirectly(t *core.Tree) error {
	return t.RunCascade() // want compaction-step
}

func backlogFine(t *core.Tree) bool {
	// Reading the backlog is allowed; only driving it is restricted.
	n, _ := t.CompactionBacklog()
	return n > 0
}

// A RunCascade method on an unrelated type must not trip the rule.
type faucet struct{}

func (faucet) RunCascade() error { return nil }

func unrelatedCascade() error {
	var f faucet
	return f.RunCascade()
}
