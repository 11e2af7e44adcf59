// Package bloom provides per-block Bloom filters for the LSM-tree's
// lookup path.
//
// The paper treats Bloom filters as an orthogonal optimization (its
// technical report discusses how they compose with the merge techniques);
// they are implemented here as an optional extension. A Registry holds one
// filter per live data block, keyed by block ID, so filters survive
// block-preserving merges (the block, and therefore its filter, simply
// changes levels) and disappear with the block on free. Filters are never
// written to the device: restoring a tree rebuilds the filter of every
// live block from its contents (core.Restore).
package bloom

import "lsmssd/internal/block"

// Filter is a fixed-size Bloom filter over record keys. Filters are
// immutable after construction, matching the immutability of data blocks.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

// NewFilter builds a filter for the given keys using approximately
// bitsPerKey bits per key. The number of hash functions is fixed at the
// conventional bitsPerKey·ln2 (capped to [1, 8]).
func NewFilter(keys []block.Key, bitsPerKey float64) *Filter {
	n := len(keys)
	if n == 0 {
		n = 1
	}
	nbits := uint64(float64(n)*bitsPerKey + 63)
	nbits -= nbits % 64
	if nbits < 64 {
		nbits = 64
	}
	hashes := int(bitsPerKey * 0.69)
	if hashes < 1 {
		hashes = 1
	}
	if hashes > 8 {
		hashes = 8
	}
	f := &Filter{bits: make([]uint64, nbits/64), nbits: nbits, hashes: hashes}
	for _, k := range keys {
		h1, h2 := hash2(uint64(k))
		for i := 0; i < hashes; i++ {
			pos := (h1 + uint64(i)*h2) % nbits
			f.bits[pos/64] |= 1 << (pos % 64)
		}
	}
	return f
}

// MayContain reports whether k may be in the filter's key set. False
// negatives never occur.
func (f *Filter) MayContain(k block.Key) bool {
	h1, h2 := hash2(uint64(k))
	for i := 0; i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBits returns the filter's size in bits (for memory accounting).
func (f *Filter) SizeBits() int { return int(f.nbits) }

// hash2 derives two independent 64-bit hashes from x via splitmix64
// finalization rounds.
func hash2(x uint64) (uint64, uint64) {
	h := x + 0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	g := h + 0x9E3779B97F4A7C15
	g ^= g >> 30
	g *= 0xBF58476D1CE4E5B9
	g ^= g >> 27
	g *= 0x94D049BB133111EB
	g ^= g >> 31
	return h, g | 1 // odd step avoids degenerate cycles
}
