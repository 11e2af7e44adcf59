// Package health implements the per-shard health state machine behind
// the engine's graceful degradation: each shard carries an explicit
// state that only worsens under faults and only recovers along audited
// paths, so a fault's blast radius stays confined to the shard that
// observed it.
//
// The states order by severity:
//
//	Healthy → Degraded → ReadOnly → Failed
//
// with these legal transitions (everything else is rejected):
//
//	Healthy  → Degraded   retry-exhausted reads, unrepaired corruption
//	Healthy  → ReadOnly   ENOSPC, poisoned WAL, quarantine-blocked merge
//	Degraded → ReadOnly   same write-side causes while already degraded
//	Degraded → Healthy    a clean scrub pass with an empty quarantine
//	Healthy  → Failed     (and Degraded/ReadOnly → Failed) unrecoverable
//	ReadOnly → Failed     read-side failure while already read-only
//
// ReadOnly does not recover in place: the causes (no space, a poisoned
// log) are not conditions a running shard can verify its way out of, so
// the only exit is a reopen, which starts a fresh tracker. Failed is
// terminal. The tracker is in-memory state; persistence is the
// manifest's concern, not health's.
//
// The package is a pure leaf: no engine imports, no observability
// imports. The owner wires an OnChange callback to publish transitions.
package health

import (
	"fmt"
	"sync"
)

// State is a shard's health state. Order is severity: a demotion always
// increases the value, and only Promote decreases it.
type State int

const (
	// Healthy serves reads and writes normally.
	Healthy State = iota
	// Degraded serves reads and writes, but a fault was observed that
	// retries could not clear (or corruption is quarantined); the
	// scrubber works toward promotion back to Healthy.
	Degraded
	// ReadOnly serves reads, snapshots, and iterators; writes fail fast.
	ReadOnly
	// Failed no longer guarantees reads; terminal until reopen.
	Failed
)

// String returns the state's display name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "read-only"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Transition records one accepted state change and its cause.
type Transition struct {
	From, To State
	Cause    string // short machine-stable cause tag, e.g. "enospc"
	Err      error  // the triggering error, may be nil for promotions
}

// Tracker is one shard's health state. Safe for concurrent use: writers,
// the scrubber, background compaction, and the stats path all consult
// it.
type Tracker struct {
	mu    sync.Mutex
	state State
	cause string
	err   error

	onChange func(Transition)
}

// NewTracker returns a Healthy tracker. onChange, when non-nil, is
// invoked synchronously (outside the tracker's lock) for every accepted
// transition; the owner publishes health events from it.
func NewTracker(onChange func(Transition)) *Tracker {
	return &Tracker{onChange: onChange}
}

// State returns the current state.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Cause returns the cause tag and error of the last accepted
// transition ("" and nil while Healthy since birth).
func (t *Tracker) Cause() (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cause, t.err
}

// legal is the transition table. Demotions must strictly increase
// severity (same-state "transitions" are rejected so causes are not
// silently overwritten and events stay one-per-change); the only
// promotion is Degraded → Healthy.
func legal(from, to State) bool {
	if from == Failed {
		return false // terminal
	}
	if to == Healthy {
		return from == Degraded // the scrubber's promotion, nothing else
	}
	return to > from
}

// transition attempts from→to, reporting whether it was accepted.
func (t *Tracker) transition(to State, cause string, err error) bool {
	t.mu.Lock()
	from := t.state
	if !legal(from, to) {
		t.mu.Unlock()
		return false
	}
	t.state, t.cause, t.err = to, cause, err
	tr := Transition{From: from, To: to, Cause: cause, Err: err}
	cb := t.onChange
	t.mu.Unlock()
	if cb != nil {
		cb(tr)
	}
	return true
}

// Degrade moves a Healthy shard to Degraded. No-op (false) from any
// other state: Degraded is idempotent and ReadOnly/Failed are worse.
func (t *Tracker) Degrade(cause string, err error) bool {
	return t.transition(Degraded, cause, err)
}

// DemoteReadOnly moves a Healthy or Degraded shard to ReadOnly.
func (t *Tracker) DemoteReadOnly(cause string, err error) bool {
	return t.transition(ReadOnly, cause, err)
}

// Fail moves any non-Failed shard to Failed.
func (t *Tracker) Fail(cause string, err error) bool {
	return t.transition(Failed, cause, err)
}

// Promote moves a Degraded shard back to Healthy (the scrubber calls it
// after a clean pass with an empty quarantine). Rejected from every
// other state: ReadOnly and Failed recover only by reopening the shard.
func (t *Tracker) Promote(cause string) bool {
	return t.transition(Healthy, cause, nil)
}
