package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// Key layout. Keys are 40-bit. Four low bits carry meaning so that the
// oracle never needs cross-client coordination:
//
//	bit 0  free: the engine routes on the low bits (key & (Shards-1)), so
//	       this bit stays random and ownership is independent of routing
//	bit 1  absent: set only on keys that are never inserted
//	bit 2  owner: the one client that writes (and exactly checks) this key
//	bit 3  fresh: set on keys first inserted during the measured phase,
//	       clear on preloaded keys, so the two sets cannot collide
const (
	keyBits   = 40
	keyMask   = 1<<keyBits - 1
	absentBit = 1 << 1
	ownerBit  = 1 << 2
	freshBit  = 1 << 3

	valueLen   = 100
	tombstone  = 1 << 31 // model marker: key deleted at this version
	verMask    = tombstone - 1
	preloadVer = 1
)

func mkKey(r uint64, owner int, fresh, absent bool) uint64 {
	k := r & keyMask &^ (absentBit | ownerBit | freshBit)
	if owner == 1 {
		k |= ownerBit
	}
	if fresh {
		k |= freshBit
	}
	if absent {
		k |= absentBit
	}
	return k
}

func ownerOf(key uint64) int { return int(key >> 2 & 1) }

// mkValue builds the 100-byte self-describing value: key, per-key version
// and writing client up front, a constant filler, and a last byte derived
// from key and version so a value stitched from two writes is detected.
func mkValue(key uint64, ver uint32) []byte {
	v := make([]byte, valueLen)
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint32(v[8:], ver)
	v[12] = byte(ownerOf(key))
	for i := 13; i < valueLen-1; i++ {
		v[i] = 'v'
	}
	v[valueLen-1] = tailByte(key, ver)
	return v
}

func tailByte(key uint64, ver uint32) byte { return byte(key>>4) ^ byte(ver) ^ 0x5a }

// checkValue is the inline oracle compare. wantVer 0 accepts any version
// (used for keys the checking client does not own).
func checkValue(key uint64, wantVer uint32, v []byte) bool {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v) != key || int(v[12]) != ownerOf(key) {
		return false
	}
	ver := binary.LittleEndian.Uint32(v[8:])
	if wantVer != 0 && ver != wantVer {
		return false
	}
	return v[valueLen-1] == tailByte(key, ver)
}

type opKind uint8

const (
	opPut opKind = iota
	opDelete
	opGet      // ver is the expected version; 0 expects not-found
	opApply    // n following opBatchPut entries form one WriteBatch
	opBatchPut //
	opScan     // key is lo; n keys are expected; ver 1 means keys are dense
)

// op is one pre-generated request. Everything the timed loop needs —
// including the expected result — is fixed before the clock starts.
type op struct {
	key  uint64
	ver  uint32
	kind opKind
	n    uint8
}

// model is one client's view of the keys it owns: the version it last
// wrote (tombstone bit set if it then deleted the key). Single ownership
// makes every expected read result exact without synchronisation.
type model struct {
	ver  map[uint64]uint32
	keys []uint64 // every key in ver, in first-write order, for sampling
}

func newModel(capacity int) *model {
	return &model{ver: make(map[uint64]uint32, capacity), keys: make([]uint64, 0, capacity)}
}

// bump records a write of key and returns the version to embed.
func (m *model) bump(key uint64) uint32 {
	old, seen := m.ver[key]
	if !seen {
		m.keys = append(m.keys, key)
	}
	v := old&verMask + 1
	m.ver[key] = v
	return v
}

func (m *model) del(key uint64) { m.ver[key] |= tombstone }

// expect returns the version a Get of key must return, 0 for not-found.
func (m *model) expect(key uint64) uint32 {
	v := m.ver[key]
	if v&tombstone != 0 {
		return 0
	}
	return v
}

func (m *model) live() int {
	n := 0
	for _, v := range m.ver {
		if v&tombstone == 0 {
			n++
		}
	}
	return n
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta for theta < 1
// (Gray et al., "Quickly generating billion-record synthetic databases").
// math/rand's Zipf needs an exponent above 1, so it cannot express 0.99.
type zipf struct {
	n, theta, alpha, zetan, eta, half float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), half: math.Pow(0.5, theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - (1+z.half)/z.zetan)
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+z.half:
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}
