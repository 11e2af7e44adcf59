// Package bloom provides per-block Bloom filters for the LSM-tree's
// lookup path.
//
// The paper treats Bloom filters as an optional extension (its technical
// report discusses how they compose with the merge techniques). A block's
// filter lives in the block's metadata, next to its fence keys
// (btree.BlockMeta.Filter), as an LSM index entry keeps it: a lookup that
// has found the block's fence reads the filter from the same entry, with
// no table on the side, no lock and no map. A block-preserving merge moves
// the metadata, and therefore the filter, to its new level; the filter
// goes when the metadata does. Filters are never written to the device:
// restoring a tree rebuilds the filter of every live block from its
// contents (core.Restore).
//
// A Registry is what the levels share: the bits per key filters are built
// with, and the skip statistics, striped so concurrent lookups bump cells
// of their own.
package bloom

import (
	"strconv"

	"lsmssd/internal/block"
)

// Filter is a fixed-size Bloom filter over record keys, of len(bits)·64
// bits. Filters are immutable after construction, matching the
// immutability of data blocks. The zero Filter is no filter: it may
// contain every key.
type Filter struct {
	bits   []uint64
	hashes int
}

// NewFilter builds a filter for the given keys using approximately
// bitsPerKey bits per key. The number of hash functions is fixed at the
// conventional bitsPerKey·ln2 (capped to [1, 8]).
func NewFilter(keys []block.Key, bitsPerKey float64) *Filter {
	f := newFilter(len(keys), bitsPerKey)
	for _, k := range keys {
		f.add(k)
	}
	return &f
}

// newFilter returns an empty filter sized for n keys. Block metadata keeps
// filters by value, so a block's filter is one allocation, its bits.
func newFilter(n int, bitsPerKey float64) Filter {
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
	return Filter{bits: make([]uint64, nbits/64), hashes: hashes}
}

// add sets k's bits.
func (f *Filter) add(k block.Key) {
	nbits := uint64(len(f.bits)) * 64
	h1, h2 := hash2(uint64(k))
	for i := 0; i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain reports whether k may be in the filter's key set. False
// negatives never occur; the zero Filter contains every key.
func (f *Filter) MayContain(k block.Key) bool {
	nbits := uint64(len(f.bits)) * 64
	if nbits == 0 {
		return true
	}
	h1, h2 := hash2(uint64(k))
	for i := 0; i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// String names the filter's size, not its bits, so a BlockMeta printed in
// an error message stays readable.
func (f Filter) String() string { return "bloom(" + strconv.Itoa(f.SizeBits()) + " bits)" }

// SizeBits returns the filter's size in bits (for memory accounting).
func (f *Filter) SizeBits() int { return len(f.bits) * 64 }

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
