// Package retry implements the bounded, jittered backoff helper behind
// the engine's fault-domain isolation: transient device errors are
// retried through a Retryer before they count against a shard's health.
//
// Every loop is capped twice — by attempt count and by a wall-clock
// deadline — so a stuck device can delay an operation only for a bounded
// window before the error surfaces and the health state machine takes
// over. Backoff is exponential with equal jitter (half fixed, half
// drawn from a seeded source), so retry storms from concurrent readers
// decorrelate while runs with the same seed remain reproducible.
//
// The lsmlint retry-bounded rule requires device-error retry loops to go
// through this package: a hand-rolled for { Read; Sleep } loop has no
// deadline, no jitter, and no accounting, and is flagged.
package retry

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults applied by New for zero Policy fields.
const (
	DefaultMaxAttempts = 3
	DefaultBaseDelay   = 200 * time.Microsecond
	DefaultMaxDelay    = 10 * time.Millisecond
	DefaultDeadline    = 100 * time.Millisecond
)

// Policy bounds a retry loop. The zero value is usable: New fills every
// unset field with the package defaults.
type Policy struct {
	// MaxAttempts is the total number of op invocations, including the
	// first (so 1 disables retries entirely).
	MaxAttempts int
	// BaseDelay is the backoff before the first re-attempt; it doubles
	// per retry up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps each individual backoff sleep.
	MaxDelay time.Duration
	// Deadline is the wall-clock budget for the whole loop, sleeps
	// included. Once the next sleep would cross it, the loop gives up.
	Deadline time.Duration
	// Seed feeds the jitter source; identical seeds produce identical
	// backoff schedules.
	Seed int64
	// Retryable classifies errors: only errors it accepts are retried.
	// Nil retries every error. Permanent conditions (corruption,
	// not-found, out of space) must be rejected here so they surface
	// immediately.
	Retryable func(error) bool
	// Sleep and Now are test seams; nil means time.Sleep / time.Now.
	Sleep func(time.Duration)
	Now   func() time.Time
}

// Stats is a snapshot of a Retryer's cumulative accounting.
type Stats struct {
	Attempts  int64 // op invocations, first tries included
	Retries   int64 // backoff sleeps taken before a re-attempt
	Exhausted int64 // Do calls that gave up on a retryable error
}

// Retryer runs operations under a Policy. Safe for concurrent use; the
// jitter source is shared and mutex-guarded (the loop is on an error
// path, never on the hot path).
type Retryer struct {
	p  Policy
	mu sync.Mutex // guards rng
	rn *rand.Rand

	attempts  atomic.Int64
	retries   atomic.Int64
	exhausted atomic.Int64
}

// New returns a Retryer for p with defaults filled in.
func New(p Policy) *Retryer {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Deadline <= 0 {
		p.Deadline = DefaultDeadline
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return &Retryer{p: p, rn: rand.New(rand.NewSource(p.Seed))}
}

// Do runs op, retrying retryable failures with jittered exponential
// backoff until it succeeds, the error is classified permanent, the
// attempt cap is hit, or the deadline would be crossed. The final error
// is wrapped with the attempt count when the loop is exhausted (the
// original error remains reachable through errors.Is/As); permanent
// errors are returned unwrapped so sentinel classification upstream is
// undisturbed.
func (r *Retryer) Do(op func() error) error {
	start := r.p.Now()
	delay := r.p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		r.attempts.Add(1)
		if err = op(); err == nil {
			return nil
		}
		if r.p.Retryable != nil && !r.p.Retryable(err) {
			return err
		}
		if attempt >= r.p.MaxAttempts {
			r.exhausted.Add(1)
			return fmt.Errorf("retry: exhausted after %d attempts: %w", attempt, err)
		}
		if r.p.Now().Sub(start)+delay > r.p.Deadline {
			r.exhausted.Add(1)
			return fmt.Errorf("retry: deadline %v exceeded after %d attempts: %w", r.p.Deadline, attempt, err)
		}
		r.retries.Add(1)
		r.p.Sleep(r.jittered(delay))
		if delay *= 2; delay > r.p.MaxDelay {
			delay = r.p.MaxDelay
		}
	}
}

// jittered applies equal jitter: half the delay fixed, half uniform.
func (r *Retryer) jittered(d time.Duration) time.Duration {
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	r.mu.Lock()
	j := r.rn.Int63n(half + 1)
	r.mu.Unlock()
	return time.Duration(half + j)
}

// Snapshot returns the cumulative retry accounting. Lock-free.
func (r *Retryer) Snapshot() Stats {
	return Stats{
		Attempts:  r.attempts.Load(),
		Retries:   r.retries.Load(),
		Exhausted: r.exhausted.Load(),
	}
}
