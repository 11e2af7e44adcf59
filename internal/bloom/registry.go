package bloom

import (
	"sync"
	"sync/atomic"

	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

// Registry maps live data blocks to their Bloom filters. A single registry
// is shared by all levels of a tree: a block preserved by a merge keeps
// its ID and therefore its filter, whatever level it lands in.
//
// The registry also keeps skip statistics so experiments can report how
// many block reads the filters avoided.
//
// Registry is safe for concurrent use: the filter map is guarded by an
// RWMutex (mutations come only from the writer; lookups come from any
// number of snapshot readers) and the skip statistics are atomics.
type Registry struct {
	bitsPerKey float64
	mu         sync.RWMutex
	filters    map[storage.BlockID]Filter
	skipped    atomic.Int64 // lookups answered "absent" without a block read
	passed     atomic.Int64 // lookups that had to read the block
}

// NewRegistry returns a registry building filters of bitsPerKey bits/key.
func NewRegistry(bitsPerKey float64) *Registry {
	return &Registry{
		bitsPerKey: bitsPerKey,
		filters:    make(map[storage.BlockID]Filter),
	}
}

// Add builds and stores the filter for a freshly written block, or for a
// live block read back when a tree is restored.
func (r *Registry) Add(id storage.BlockID, b *block.Block) {
	f := newFilter(b.Len(), r.bitsPerKey)
	c := b.Cursor()
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		f.add(rec.Key)
	}
	r.mu.Lock()
	r.filters[id] = f
	r.mu.Unlock()
}

// Drop removes the filter of a freed block.
func (r *Registry) Drop(id storage.BlockID) {
	r.mu.Lock()
	delete(r.filters, id)
	r.mu.Unlock()
}

// MayContain consults the block's filter; blocks without a filter (one
// that failed its checksum when the tree was restored, or one already
// dropped while an old snapshot still references it) conservatively
// report true, so the read goes to the device.
func (r *Registry) MayContain(id storage.BlockID, k block.Key) bool {
	r.mu.RLock()
	f, ok := r.filters[id]
	r.mu.RUnlock()
	if !ok {
		r.passed.Add(1)
		return true
	}
	if f.MayContain(k) {
		r.passed.Add(1)
		return true
	}
	r.skipped.Add(1)
	return false
}

// Counts returns the skip statistics: lookups answered "absent" without a
// block read, and lookups that had to read the block.
func (r *Registry) Counts() (skipped, passed int64) {
	return r.skipped.Load(), r.passed.Load()
}

// ResetCounts zeroes the skip statistics, starting a fresh measurement
// window. Filters are unaffected.
func (r *Registry) ResetCounts() {
	r.skipped.Store(0)
	r.passed.Store(0)
}

// Len returns the number of registered filters.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.filters)
}

// MemoryBits returns the total filter size in bits.
func (r *Registry) MemoryBits() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, f := range r.filters {
		total += f.SizeBits()
	}
	return total
}
