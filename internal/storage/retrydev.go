package storage

import (
	"lsmssd/internal/block"
	"lsmssd/internal/retry"
)

// RetryDevice decorates a Device so transient read errors are retried
// through a bounded, jittered backoff (internal/retry) before they
// surface. Permanent errors — ErrCorrupt, ErrNotFound, ErrNoSpace —
// pass through immediately, so corruption stays loud and sentinel
// classification upstream is undisturbed.
//
// Only reads (ReadInto) retry: it is the path where flaky media and transient
// bus errors appear, and re-reading an immutable block is always safe.
// Write, Free, and Sync forward unchanged — their errors carry
// durability meaning (a retried failed fsync could falsely report lost
// frames durable; the WAL layer poisons instead) and are classified by
// the health layer, not masked here.
//
// Peek also never retries: it exists for diagnostics and the scrubber,
// which must observe the device's real state, first try.
//
// On the happy path the wrapper adds one function call and no
// allocation; accounting (the paper's write counts) is entirely the
// inner device's, so traffic numbers are byte-identical whether or not
// a RetryDevice is in the stack when no faults occur.
type RetryDevice struct {
	inner Device
	r     *retry.Retryer
	// onExhausted, when non-nil, observes every read whose retries were
	// exhausted (the shard's health layer counts these against the
	// shard). Called with the final wrapped error.
	onExhausted func(err error)
}

// NewRetryDevice wraps inner. r must classify permanence itself when
// constructed elsewhere; NewRetryDevice forces Retryable to the
// package's Transient classifier so the permanence contract above holds
// regardless of the policy passed in.
func NewRetryDevice(inner Device, p retry.Policy, onExhausted func(error)) *RetryDevice {
	p.Retryable = Transient
	return &RetryDevice{inner: inner, r: retry.New(p), onExhausted: onExhausted}
}

// Alloc passes through.
func (d *RetryDevice) Alloc() BlockID { return d.inner.Alloc() }

// Write passes through (see the type comment for why writes never
// retry).
func (d *RetryDevice) Write(id BlockID, b *block.Block) error {
	return d.inner.Write(id, b)
}

// ReadInto loads the block under id into dst, retrying transient
// failures within the retry policy's attempt and deadline caps.
func (d *RetryDevice) ReadInto(id BlockID, dst *block.Block) error {
	err := d.r.Do(func() error { return d.inner.ReadInto(id, dst) })
	if err != nil && d.onExhausted != nil && Transient(err) {
		d.onExhausted(err)
	}
	return err
}

// Read returns a copy of the block under id, retried as ReadInto is.
func (d *RetryDevice) Read(id BlockID) (*block.Block, error) { return readCopy(d, id) }

// Peek passes through without retries.
func (d *RetryDevice) Peek(id BlockID, dst *block.Block) error { return d.inner.Peek(id, dst) }

// Free passes through.
func (d *RetryDevice) Free(id BlockID) error { return d.inner.Free(id) }

// Counters returns the inner device's counters.
func (d *RetryDevice) Counters() Counters { return d.inner.Counters() }

// ResetCounters resets the inner device's traffic counters and the
// wrapper's retry accounting: one measurement window for both.
func (d *RetryDevice) ResetCounters() {
	d.inner.ResetCounters()
	d.r.Reset()
}

// Close closes the inner device.
func (d *RetryDevice) Close() error { return d.inner.Close() }

// Sync forwards to the inner device when it is a Syncer; a no-op
// otherwise. Sync failures are never retried (see the type comment).
func (d *RetryDevice) Sync() error {
	if s, ok := d.inner.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// RetryStats returns the wrapper's cumulative retry accounting.
func (d *RetryDevice) RetryStats() retry.Stats { return d.r.Snapshot() }

// Inner returns the wrapped device (the shard's scrubber peeks below
// the cache through it).
func (d *RetryDevice) Inner() Device { return d.inner }
