package storage

import (
	"fmt"
	"sync"

	"lsmssd/internal/block"
)

// MemDevice is an in-memory simulated SSD. It stores a copy of each
// block's encoded bytes in a map and keeps exact traffic counters. It is safe for concurrent use: the block
// map is guarded by an RWMutex so readers proceed in parallel, and the
// traffic counters are atomics so the read path never serializes on the
// allocator state.
//
// MemDevice substitutes for the paper's physical SSD: since the evaluation
// metric is the count of block writes (instrumented in code, not measured
// by the drive), an in-memory store reproduces the experiments exactly
// while keeping runs fast and deterministic.
type MemDevice struct {
	mu     sync.RWMutex
	blocks map[BlockID]block.Block
	next   BlockID
	cnt    atomicCounters
}

// NewMemDevice returns an empty in-memory device.
func NewMemDevice() *MemDevice {
	return &MemDevice{blocks: make(map[BlockID]block.Block), next: 1}
}

// Alloc reserves a fresh block ID.
func (d *MemDevice) Alloc() BlockID {
	d.mu.Lock()
	id := d.next
	d.next++
	d.mu.Unlock()
	d.cnt.allocs.Add(1)
	d.cnt.live.Add(1)
	return id
}

// Write stores a copy of b under id and counts one block write.
func (d *MemDevice) Write(id BlockID, b *block.Block) error {
	if id == 0 {
		return fmt.Errorf("storage: write to invalid block id 0")
	}
	if b == nil || b.Len() == 0 {
		return fmt.Errorf("storage: write of empty block %d", id)
	}
	var kept block.Block
	kept.CopyFrom(b)
	d.mu.Lock()
	if _, ok := d.blocks[id]; ok {
		d.mu.Unlock()
		return fmt.Errorf("storage: block %d rewritten in place", id)
	}
	d.blocks[id] = kept
	d.mu.Unlock()
	d.cnt.writes.Add(1)
	return nil
}

// ReadInto copies the block under id into dst and counts one block read.
func (d *MemDevice) ReadInto(id BlockID, dst *block.Block) error {
	if err := d.load(id, dst); err != nil {
		return err
	}
	d.cnt.reads.Add(1)
	return nil
}

// Read returns a copy of the block under id and counts one block read.
func (d *MemDevice) Read(id BlockID) (*block.Block, error) { return readCopy(d, id) }

// Peek copies the block under id into dst without touching the counters.
func (d *MemDevice) Peek(id BlockID, dst *block.Block) error { return d.load(id, dst) }

// load copies the stored bytes into dst under the read lock: Free may
// drop the map entry the moment the lock is released.
func (d *MemDevice) load(id BlockID, dst *block.Block) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	b, ok := d.blocks[id]
	if !ok {
		return fmt.Errorf("storage: read block %d: %w", id, ErrNotFound)
	}
	dst.CopyFrom(&b) // validated when it was built
	return nil
}

// Free releases id.
func (d *MemDevice) Free(id BlockID) error {
	d.mu.Lock()
	if _, ok := d.blocks[id]; !ok {
		d.mu.Unlock()
		return fmt.Errorf("storage: free block %d: %w", id, ErrNotFound)
	}
	delete(d.blocks, id)
	d.mu.Unlock()
	d.cnt.frees.Add(1)
	d.cnt.live.Add(-1)
	return nil
}

// Counters returns a snapshot of the accounting state.
func (d *MemDevice) Counters() Counters { return d.cnt.snapshot() }

// ResetCounters zeroes the traffic counters.
func (d *MemDevice) ResetCounters() { d.cnt.resetTraffic() }

// Close releases the block map.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks = nil
	return nil
}
