package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
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
	f := r.Build(b)
	if !r.Probe(&f, 5) {
		t.Error("built key reported absent")
	}
	// No filter is conservative.
	if !r.Probe(&Filter{}, 5) {
		t.Error("the zero filter must report true")
	}
	if sk, pa := r.Counts(); sk != 0 || pa != 2 {
		t.Errorf("counts = %d skipped, %d passed; want 0, 2", sk, pa)
	}
	// A key far from the block's set usually skips; either way it counts.
	r.Probe(&f, 123456789)
	if sk, pa := r.Counts(); sk+pa != 3 {
		t.Errorf("probe not counted: %d skipped + %d passed", sk, pa)
	}
	// Same bits as a filter built from the keys directly.
	g := NewFilter([]block.Key{1, 5, 9}, 10)
	if f.SizeBits() != g.SizeBits() || f.hashes != g.hashes {
		t.Fatalf("Build made %d bits/%d hashes, NewFilter %d/%d", f.SizeBits(), f.hashes, g.SizeBits(), g.hashes)
	}
	for i := range f.bits {
		if f.bits[i] != g.bits[i] {
			t.Fatalf("word %d: Build %x, NewFilter %x", i, f.bits[i], g.bits[i])
		}
	}
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
