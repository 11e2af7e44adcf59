// Package faultdev wraps any storage.Device with deterministic fault
// injection: seeded probabilistic schedules for failed writes, failed
// reads, torn writes, bit rot, a capacity ceiling (ENOSPC), injected
// latency, and a power-cut simulation mode that drops every un-synced
// write on Crash.
//
// It exists so every layer exercises the same failure model. Unit tests
// across core and level used to carry copy-pasted one-off fault wrappers;
// they now share this package, and the crash-recovery harness drives the
// power-cut mode against the full DB stack.
//
// Determinism: all probabilistic faults draw from a private rand.Rand
// seeded by Options.Seed, so a failing schedule replays exactly from its
// seed. The counter-based triggers (FailWriteAt, FailReadAt) are exact:
// attempt counters include the faulted calls themselves, so "fail the
// N-th access from now" is expressible as FailReadAt(d.Reads()+N).
package faultdev

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

// ErrInjected marks a deliberately injected read/write failure. Callers
// assert errors.Is(err, ErrInjected) to verify provenance survives the
// engine's wrapping.
var ErrInjected = errors.New("faultdev: injected fault")

// ErrNoSpace reports the configured capacity ceiling was hit, modelling
// ENOSPC from a full device. It wraps storage.ErrNoSpace so the health
// layer's errors.Is(err, storage.ErrNoSpace) classification sees an
// injected ENOSPC exactly as it would see a real one.
var ErrNoSpace = fmt.Errorf("faultdev: injected: %w", storage.ErrNoSpace)

// Options configures the fault schedule. The zero value injects nothing
// and passes every call straight through.
type Options struct {
	// Seed seeds the private RNG driving the probabilistic faults.
	Seed int64
	// WriteFailProb is the per-write probability of returning ErrInjected
	// without storing anything.
	WriteFailProb float64
	// ReadFailProb is the per-read probability of returning ErrInjected.
	ReadFailProb float64
	// TornWriteProb is the per-write probability that the write reports
	// success but the stored block is damaged: every later read of it
	// returns storage.ErrCorrupt.
	TornWriteProb float64
	// BitFlipProb is the per-write probability of silent bit rot with the
	// same observable effect as a torn write, but counted separately.
	BitFlipProb float64
	// CapacityBlocks, when positive, fails writes with ErrNoSpace once the
	// device's live-block count exceeds it.
	CapacityBlocks int64
	// SyncFailProb is the per-Sync probability of returning ErrInjected
	// without committing anything (power-cut volatile state stays
	// volatile).
	SyncFailProb float64
	// SyncFailSticky makes every injected Sync failure permanent: once a
	// sync has failed, all later syncs fail too — modelling the
	// fsyncgate contract (a device that failed to flush its cache cannot
	// be trusted to have flushed it later).
	SyncFailSticky bool
	// FreeFailProb is the per-Free probability of returning ErrInjected
	// without releasing the block.
	FreeFailProb float64
	// Latency is added to every read and write.
	Latency time.Duration
	// PowerCut arms the power-cut simulation: writes are tracked as
	// volatile until Sync, frees are deferred until Sync, and Crash drops
	// everything volatile — modelling a device cache losing power. The
	// inner device must not recycle block IDs (MemDevice qualifies).
	PowerCut bool
}

// Device is the fault-injecting storage.Device wrapper. Construct with
// Wrap.
type Device struct {
	inner storage.Device
	opts  Options

	mu           sync.Mutex
	rng          *rand.Rand
	writes       int64 // write attempts, including faulted ones
	reads        int64 // read attempts, including faulted ones
	syncs        int64 // sync attempts, including faulted ones
	frees        int64 // free attempts, including faulted ones
	failWriteAt  int64 // fail every write once writes reaches this (0 = off)
	failReadAt   int64
	failSyncAt   int64
	failFreeAt   int64
	syncPoisoned bool                     // sticky: a sync failed under SyncFailSticky
	corrupt      map[storage.BlockID]bool // torn/bit-rotted blocks
	unsynced     map[storage.BlockID]bool // written since last Sync (power-cut mode)
	pendingFree  map[storage.BlockID]bool // freed since last Sync (power-cut mode)

	injWriteFails, injReadFails, injTorn, injFlips, injSyncFails, injFreeFails int64
}

var _ storage.Device = (*Device)(nil)

// Wrap layers the fault schedule in o over inner.
func Wrap(inner storage.Device, o Options) *Device {
	return &Device{
		inner:       inner,
		opts:        o,
		rng:         rand.New(rand.NewSource(o.Seed)),
		corrupt:     make(map[storage.BlockID]bool),
		unsynced:    make(map[storage.BlockID]bool),
		pendingFree: make(map[storage.BlockID]bool),
	}
}

// FailWriteAt arms the exact trigger: every write attempt from the n-th
// on (1-based, counting faulted attempts) fails with ErrInjected. Zero
// disarms it.
func (d *Device) FailWriteAt(n int64) {
	d.mu.Lock()
	d.failWriteAt = n
	d.mu.Unlock()
}

// FailReadAt is FailWriteAt for reads.
func (d *Device) FailReadAt(n int64) {
	d.mu.Lock()
	d.failReadAt = n
	d.mu.Unlock()
}

// FailSyncAt is FailWriteAt for syncs: every Sync attempt from the n-th
// on (1-based, counting faulted attempts) fails with ErrInjected. With
// Options.SyncFailSticky the first injected failure also poisons all
// later syncs regardless of the counter.
func (d *Device) FailSyncAt(n int64) {
	d.mu.Lock()
	d.failSyncAt = n
	d.mu.Unlock()
}

// FailFreeAt is FailWriteAt for frees.
func (d *Device) FailFreeAt(n int64) {
	d.mu.Lock()
	d.failFreeAt = n
	d.mu.Unlock()
}

// Corrupt marks id damaged in place: every later Read or Peek of it
// returns storage.ErrCorrupt, exactly as if a torn write had hit it.
// Scrub and quarantine tests use it to target a known live block
// deterministically.
func (d *Device) Corrupt(id storage.BlockID) {
	d.mu.Lock()
	d.corrupt[id] = true
	d.mu.Unlock()
}

// Writes returns the number of write attempts so far, faulted included.
func (d *Device) Writes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Reads returns the number of read attempts so far, faulted included.
func (d *Device) Reads() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}

// Syncs returns the number of sync attempts so far, faulted included.
func (d *Device) Syncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Frees returns the number of free attempts so far, faulted included.
func (d *Device) Frees() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frees
}

// Alloc delegates to the inner device; allocation itself never faults
// (real allocators fail at write time, which is where ErrNoSpace fires).
func (d *Device) Alloc() storage.BlockID { return d.inner.Alloc() }

// Write applies the write-side fault schedule, then delegates.
func (d *Device) Write(id storage.BlockID, b *block.Block) error {
	if d.opts.Latency > 0 {
		time.Sleep(d.opts.Latency)
	}
	d.mu.Lock()
	d.writes++
	n := d.writes
	if d.failWriteAt > 0 && n >= d.failWriteAt {
		d.injWriteFails++
		d.mu.Unlock()
		return fmt.Errorf("write %d: %w", n, ErrInjected)
	}
	if d.opts.WriteFailProb > 0 && d.rng.Float64() < d.opts.WriteFailProb {
		d.injWriteFails++
		d.mu.Unlock()
		return fmt.Errorf("write %d: %w", n, ErrInjected)
	}
	torn := d.opts.TornWriteProb > 0 && d.rng.Float64() < d.opts.TornWriteProb
	flip := d.opts.BitFlipProb > 0 && d.rng.Float64() < d.opts.BitFlipProb
	d.mu.Unlock()
	if d.opts.CapacityBlocks > 0 && d.inner.Counters().Live > d.opts.CapacityBlocks {
		return fmt.Errorf("write block %d: %w", id, ErrNoSpace)
	}
	if err := d.inner.Write(id, b); err != nil {
		return err
	}
	d.mu.Lock()
	if torn {
		d.corrupt[id] = true
		d.injTorn++
	} else if flip {
		d.corrupt[id] = true
		d.injFlips++
	}
	if d.opts.PowerCut {
		d.unsynced[id] = true
	}
	d.mu.Unlock()
	return nil
}

// ReadInto applies the read-side fault schedule, then delegates.
func (d *Device) ReadInto(id storage.BlockID, dst *block.Block) error {
	if d.opts.Latency > 0 {
		time.Sleep(d.opts.Latency)
	}
	d.mu.Lock()
	d.reads++
	n := d.reads
	if d.failReadAt > 0 && n >= d.failReadAt {
		d.injReadFails++
		d.mu.Unlock()
		return fmt.Errorf("read %d: %w", n, ErrInjected)
	}
	if d.opts.ReadFailProb > 0 && d.rng.Float64() < d.opts.ReadFailProb {
		d.injReadFails++
		d.mu.Unlock()
		return fmt.Errorf("read %d: %w", n, ErrInjected)
	}
	d.mu.Unlock()
	if err := d.damage(id, "read"); err != nil {
		return err
	}
	return d.inner.ReadInto(id, dst)
}

// Read returns a copy of the block under id, through ReadInto's schedule.
func (d *Device) Read(id storage.BlockID) (*block.Block, error) {
	b := new(block.Block)
	if err := d.ReadInto(id, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Peek bypasses the probabilistic schedule (diagnostics must not consume
// RNG state) but still surfaces torn-write damage.
func (d *Device) Peek(id storage.BlockID, dst *block.Block) error {
	if err := d.damage(id, "peek"); err != nil {
		return err
	}
	return d.inner.Peek(id, dst)
}

// damage reports a block freed under power-cut mode as missing and a
// torn or bit-rotted block as corrupt.
func (d *Device) damage(id storage.BlockID, op string) error {
	d.mu.Lock()
	bad := d.corrupt[id]
	gone := d.pendingFree[id]
	d.mu.Unlock()
	if gone {
		return fmt.Errorf("faultdev: %s block %d: %w", op, id, storage.ErrNotFound)
	}
	if bad {
		return fmt.Errorf("faultdev: %s block %d: damaged by torn write: %w", op, id, storage.ErrCorrupt)
	}
	return nil
}

// Free releases id. In power-cut mode the release is deferred until the
// next Sync — a real device's FTL must not reuse the physical block while
// the free could still be lost with the cache — so a Crash resurrects the
// block exactly as a power cut would.
func (d *Device) Free(id storage.BlockID) error {
	d.mu.Lock()
	d.frees++
	if n := d.frees; (d.failFreeAt > 0 && n >= d.failFreeAt) ||
		(d.opts.FreeFailProb > 0 && d.rng.Float64() < d.opts.FreeFailProb) {
		d.injFreeFails++
		d.mu.Unlock()
		return fmt.Errorf("free %d block %d: %w", n, id, ErrInjected)
	}
	if d.opts.PowerCut {
		if d.pendingFree[id] {
			d.mu.Unlock()
			return fmt.Errorf("faultdev: free block %d: %w", id, storage.ErrNotFound)
		}
		if d.unsynced[id] {
			// Never became durable, so the free cannot outlive the write:
			// apply both immediately.
			delete(d.unsynced, id)
			delete(d.corrupt, id)
			d.mu.Unlock()
			return d.inner.Free(id)
		}
		d.pendingFree[id] = true
		d.mu.Unlock()
		return nil
	}
	delete(d.corrupt, id)
	d.mu.Unlock()
	return d.inner.Free(id)
}

// Sync makes the power-cut volatile state durable: tracked writes are
// committed and deferred frees applied to the inner device. Outside
// power-cut mode it is a no-op.
func (d *Device) Sync() error {
	d.mu.Lock()
	d.syncs++
	n := d.syncs
	fail := d.syncPoisoned ||
		(d.failSyncAt > 0 && n >= d.failSyncAt) ||
		(d.opts.SyncFailProb > 0 && d.rng.Float64() < d.opts.SyncFailProb)
	if fail {
		d.injSyncFails++
		if d.opts.SyncFailSticky {
			d.syncPoisoned = true
		}
		d.mu.Unlock()
		// The volatile state stays volatile: a failed sync committed
		// nothing, exactly like a real cache-flush failure.
		return fmt.Errorf("sync %d: %w", n, ErrInjected)
	}
	if !d.opts.PowerCut {
		d.mu.Unlock()
		return nil
	}
	frees := make([]storage.BlockID, 0, len(d.pendingFree))
	for id := range d.pendingFree {
		frees = append(frees, id)
	}
	d.unsynced = make(map[storage.BlockID]bool)
	d.pendingFree = make(map[storage.BlockID]bool)
	d.mu.Unlock()
	var errs []error
	for _, id := range frees {
		if err := d.inner.Free(id); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Crash simulates a power cut: every write since the last Sync is
// dropped from the inner device, every deferred free is forgotten (the
// blocks survive, exactly as un-flushed FTL metadata would), and the
// volatile state is cleared. It returns the number of dropped writes.
// Only meaningful in power-cut mode.
func (d *Device) Crash() (dropped int, err error) {
	d.mu.Lock()
	drops := make([]storage.BlockID, 0, len(d.unsynced))
	for id := range d.unsynced {
		drops = append(drops, id)
	}
	d.unsynced = make(map[storage.BlockID]bool)
	d.pendingFree = make(map[storage.BlockID]bool)
	for _, id := range drops {
		delete(d.corrupt, id)
	}
	d.mu.Unlock()
	var errs []error
	for _, id := range drops {
		if ferr := d.inner.Free(id); ferr != nil {
			errs = append(errs, ferr)
		}
	}
	return len(drops), errors.Join(errs...)
}

// InjectedStats reports how many faults each schedule has fired.
type InjectedStats struct {
	WriteFails int64
	ReadFails  int64
	TornWrites int64
	BitFlips   int64
	SyncFails  int64
	FreeFails  int64
}

// Injected returns a snapshot of the fault counts fired so far.
func (d *Device) Injected() InjectedStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return InjectedStats{
		WriteFails: d.injWriteFails,
		ReadFails:  d.injReadFails,
		TornWrites: d.injTorn,
		BitFlips:   d.injFlips,
		SyncFails:  d.injSyncFails,
		FreeFails:  d.injFreeFails,
	}
}

// Counters reports the inner device's accounting, adjusted so deferred
// frees look applied — the engine above observed those frees succeed, and
// its accounting invariants (Live == referenced + deferred zombies) must
// keep holding between Sync points.
func (d *Device) Counters() storage.Counters {
	c := d.inner.Counters()
	d.mu.Lock()
	pending := int64(len(d.pendingFree))
	d.mu.Unlock()
	c.Frees += pending
	c.Live -= pending
	return c
}

// Close delegates to the inner device.
func (d *Device) Close() error { return d.inner.Close() }
