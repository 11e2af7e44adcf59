// Package storage provides the block-device abstraction under the LSM-tree
// and its write-cost instrumentation.
//
// The paper's primary metric is the number of data-block writes issued to
// the SSD, counted in code "independent of the platform running
// experiments" (Section V). Device implementations therefore keep exact
// counters of block reads, writes, allocations and frees. Two devices are
// provided: MemDevice, an in-memory simulated SSD used by tests and the
// benchmark harness, and FileDevice, a file-backed store that exercises a
// real I/O path with the same accounting.
package storage

import (
	"errors"
	"sync/atomic"

	"lsmssd/internal/block"
)

// BlockID identifies a block on a device. The zero value is never a valid
// ID, so it can be used as a sentinel.
type BlockID uint64

// ErrNotFound is returned when reading a block that was never written or
// has been freed.
var ErrNotFound = errors.New("storage: block not found")

// ErrCorrupt is returned when a block read back from a device fails its
// integrity check — a torn write, bit rot, or external damage. The engine
// surfaces it unmodified through Get/Scan/merge paths rather than
// treating the block as absent: corruption is loud, never silent.
var ErrCorrupt = errors.New("storage: block corrupt")

// ErrNoSpace is returned when a device cannot store a block because its
// capacity is exhausted. It is a permanent condition for the shard that
// hit it (retrying cannot create space): the health layer demotes the
// shard to read-only while its reads keep serving.
var ErrNoSpace = errors.New("storage: no space left on device")

// Transient classifies device errors for the retry layer: an error is
// worth retrying unless it names a permanent condition — corruption
// (re-reading returns the same damaged bytes), a missing block, or an
// exhausted device. Everything else (an injected fault, a flaky I/O
// path) may clear on a re-attempt.
func Transient(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrCorrupt) &&
		!errors.Is(err, ErrNotFound) &&
		!errors.Is(err, ErrNoSpace)
}

// Syncer is implemented by devices whose writes can be made durable on
// demand. The DB layer syncs the device before writing a checkpoint
// manifest, so a manifest never references block contents that could
// still be lost to a power cut.
type Syncer interface {
	Sync() error
}

// Counters is a snapshot of a device's accounting state. Writes is the
// paper's cost metric.
type Counters struct {
	Reads  int64 // counted block reads
	Writes int64 // counted block writes (the cost metric)
	Allocs int64 // blocks allocated over the device lifetime
	Frees  int64 // blocks freed over the device lifetime
	Live   int64 // blocks currently allocated
}

// atomicCounters is the devices' shared counter implementation. Counters
// are atomics so the concurrent read path (snapshot-isolated Get/Scan)
// never serializes on accounting, and so snapshots taken while traffic
// flows are race-free.
type atomicCounters struct {
	reads, writes, allocs, frees, live atomic.Int64
}

func (c *atomicCounters) snapshot() Counters {
	return Counters{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Allocs: c.allocs.Load(),
		Frees:  c.frees.Load(),
		Live:   c.live.Load(),
	}
}

// Device is a block store. Blocks are immutable once written: the tree
// never updates a block in place (the defining property of LSM on SSDs),
// so Write is called exactly once per allocated ID.
type Device interface {
	// Alloc reserves a fresh block ID. The block is not readable until
	// written.
	Alloc() BlockID
	// Write stores b under id and counts one block write. The device does
	// not retain b: it copies what it keeps, so the caller may refill b
	// (a merge's reused output buffer) as soon as Write returns.
	Write(id BlockID, b *block.Block) error
	// ReadInto loads the block stored under id into dst, reusing dst's
	// memory, and counts one block read. It is the engine's one counted
	// read: dst is the caller's, so a read allocates nothing once dst has
	// held a block as large.
	ReadInto(id BlockID, dst *block.Block) error
	// Read returns a private copy of the block stored under id and counts
	// one block read: ReadInto into a fresh block, for callers that keep
	// the block (tests, tools).
	Read(id BlockID) (*block.Block, error)
	// Peek loads the block stored under id into dst without counting a
	// read. It exists for diagnostics (key-distribution histograms,
	// invariant checks, the scrubber, reopen checks) that must not perturb
	// the experiment's accounting.
	Peek(id BlockID, dst *block.Block) error
	// Free releases id; reading it afterwards fails.
	Free(id BlockID) error
	// Counters returns a snapshot of the accounting state. All but Live
	// count over the device's lifetime: a measurement window is the
	// difference of two snapshots.
	Counters() Counters
	// Close releases any resources held by the device.
	Close() error
}

// readCopy is every device's Read: ReadInto a fresh block.
func readCopy(d Device, id BlockID) (*block.Block, error) {
	b := new(block.Block)
	if err := d.ReadInto(id, b); err != nil {
		return nil, err
	}
	return b, nil
}
