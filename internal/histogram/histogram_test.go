package histogram

import (
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

func buildTree(t *testing.T) (*core.Tree, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice()
	tree, err := core.New(core.Config{
		Device:        dev,
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 8,
		K0:            2,
		Gamma:         4,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree, dev
}

func TestLevelHistogram(t *testing.T) {
	tree, dev := buildTree(t)
	// Keys concentrated in the lower half of a [0, 1000) key space.
	drv := compaction.Driver{Tree: tree}
	for k := uint64(0); k < 500; k += 2 {
		if err := drv.Put(block.Key(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	v, err := tree.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	before := dev.Counters().Reads
	counts, err := ViewLevel(v, 1, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := dev.Counters().Reads; got != before {
		t.Errorf("histogram counted %d reads; must use Peek", got-before)
	}
	if len(counts) != 10 {
		t.Fatalf("got %d buckets", len(counts))
	}
	for b := 5; b < 10; b++ {
		if counts[b] != 0 {
			t.Errorf("bucket %d = %d, want 0 (no keys above 500)", b, counts[b])
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if want := v.Levels()[0].Records; total != want {
		t.Errorf("histogram total %d != level records %d", total, want)
	}
}

func TestLevelHistogramRange(t *testing.T) {
	tree, _ := buildTree(t)
	v, err := tree.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if _, err := ViewLevel(v, 0, 1000, 10); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := ViewLevel(v, 99, 1000, 10); err == nil {
		t.Error("absent level accepted")
	}
}

func TestNormalize(t *testing.T) {
	norm := Normalize([]int{3, 0, 1, 4})
	if norm[0] != 3.0/8 || norm[1] != 0 {
		t.Errorf("Normalize = %v", norm)
	}
	sum := 0.0
	for _, f := range norm {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("normalized sum = %v", sum)
	}
	if z := Normalize(make([]int, 4)); z[0] != 0 {
		t.Error("normalizing zeros should yield zeros")
	}
}

func TestBucketClamping(t *testing.T) {
	// A key at the very top of the space must land in the last bucket.
	if b := bucket(999, 1000, 10); b != 9 {
		t.Errorf("bucket(999) = %d", b)
	}
	if b := bucket(0, 1000, 10); b != 0 {
		t.Errorf("bucket(0) = %d", b)
	}
	// Keys beyond the nominal space clamp rather than panic.
	if b := bucket(5000, 1000, 10); b != 9 {
		t.Errorf("bucket(5000) = %d", b)
	}
}
