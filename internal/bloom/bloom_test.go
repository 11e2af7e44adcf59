package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]block.Key, 500)
	for i := range keys {
		keys[i] = block.Key(rng.Uint64())
	}
	f := NewFilter(keys, 10)
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for key %d", k)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	present := map[block.Key]bool{}
	keys := make([]block.Key, 1000)
	for i := range keys {
		keys[i] = block.Key(rng.Uint64())
		present[keys[i]] = true
	}
	f := NewFilter(keys, 10)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		k := block.Key(rng.Uint64())
		if present[k] {
			continue
		}
		if f.MayContain(k) {
			fp++
		}
	}
	// 10 bits/key gives ~1% theoretical; allow generous slack.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %.3f too high for 10 bits/key", rate)
	}
}

func TestEmptyFilter(t *testing.T) {
	f := NewFilter(nil, 10)
	if f.MayContain(42) {
		t.Error("empty filter claims membership")
	}
	if f.SizeBits() < 64 {
		t.Errorf("SizeBits = %d, want >= 64", f.SizeBits())
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(10)
	b := block.New([]block.Record{{Key: 1}, {Key: 5}, {Key: 9}})
	r.Add(7, b)
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if !r.MayContain(7, 5) {
		t.Error("registered key reported absent")
	}
	// Unknown block is conservative.
	if !r.MayContain(99, 5) {
		t.Error("unknown block must conservatively report true")
	}
	r.Drop(7)
	if r.Len() != 0 {
		t.Errorf("Len after Drop = %d", r.Len())
	}
	// Skip accounting: a key far from the block's set should usually
	// skip; at minimum the counters move.
	r.Add(8, b)
	sk, pa := r.Counts()
	before := sk + pa
	r.MayContain(8, 123456789)
	if sk, pa = r.Counts(); sk+pa != before+1 {
		t.Error("lookup not counted")
	}
	_ = storage.BlockID(0) // keep import honest in minimal builds
}

// Property: filters never produce false negatives for any key set.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(raw []uint32, bpkRaw uint8) bool {
		bpk := float64(bpkRaw%12) + 2
		keys := make([]block.Key, len(raw))
		for i, v := range raw {
			keys[i] = block.Key(v)
		}
		filter := NewFilter(keys, bpk)
		for _, k := range keys {
			if !filter.MayContain(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
