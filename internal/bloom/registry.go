package bloom

import (
	"lsmssd/internal/block"
	"lsmssd/internal/stripe"
)

// Registry is what the levels of one tree share about their filters: the
// bits per key every filter is built with, and skip statistics so
// experiments can report how many block reads the filters avoided. The
// filters themselves live in the block metadata (btree.BlockMeta.Filter).
//
// Registry holds no lock and no map: Build reads only bitsPerKey, and
// Probe bumps the calling goroutine's cell of a striped counter, so
// concurrent lookups write no shared cache line.
type Registry struct {
	bitsPerKey float64
	skipped    stripe.Counter // probes answered "absent" without a block read
	passed     stripe.Counter // probes that had to read the block
}

// NewRegistry returns a registry building filters of bitsPerKey bits/key.
func NewRegistry(bitsPerKey float64) *Registry {
	return &Registry{bitsPerKey: bitsPerKey}
}

// Build returns the filter of b's keys: for a freshly written block, or for
// a live block read back when a tree is restored.
func (r *Registry) Build(b *block.Block) Filter {
	f := newFilter(b.Len(), r.bitsPerKey)
	c := b.Cursor()
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		f.add(rec.Key)
	}
	return f
}

// Probe consults a block's filter for k and counts the outcome. A block
// without one (the zero Filter: one that failed its checksum when the
// tree was restored) passes, so the read goes to the device.
func (r *Registry) Probe(f *Filter, k block.Key) bool {
	if f.MayContain(k) {
		r.passed.Add(1)
		return true
	}
	r.skipped.Add(1)
	return false
}

// Counts returns the skip statistics: probes answered "absent" without a
// block read, and probes that had to read the block.
func (r *Registry) Counts() (skipped, passed int64) {
	return r.skipped.Load(), r.passed.Load()
}
