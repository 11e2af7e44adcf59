package btree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

// meta builds a BlockMeta spanning [min, max] with the given count.
func meta(id storage.BlockID, min, max block.Key, count int) BlockMeta {
	return BlockMeta{ID: id, Min: min, Max: max, Count: count}
}

// seq builds an index of n blocks, block i spanning [i*10, i*10+5] with 3
// records each.
func seq(n int) *Index {
	metas := make([]BlockMeta, n)
	for i := range metas {
		metas[i] = meta(storage.BlockID(i+1), block.Key(i*10), block.Key(i*10+5), 3)
	}
	return NewIndex(metas)
}

func TestMetaFor(t *testing.T) {
	b := block.New([]block.Record{{Key: 4}, {Key: 9}})
	m := MetaFor(7, b)
	if !m.SameBlock(BlockMeta{ID: 7, Min: 4, Max: 9, Count: 2}) || m.Filter.SizeBits() != 0 {
		t.Errorf("MetaFor = %+v", m)
	}
}

func TestFind(t *testing.T) {
	x := seq(5) // ranges [0,5],[10,15],[20,25],[30,35],[40,45]
	cases := []struct {
		k   block.Key
		pos int
		ok  bool
	}{
		{0, 0, true}, {5, 0, true}, {3, 0, true},
		{7, 0, false}, // gap between blocks
		{10, 1, true}, {45, 4, true}, {46, 0, false}, {100, 0, false},
	}
	for _, c := range cases {
		pos, ok := x.Find(c.k)
		if ok != c.ok || (ok && pos != c.pos) {
			t.Errorf("Find(%d) = %d,%v, want %d,%v", c.k, pos, ok, c.pos, c.ok)
		}
	}
}

func TestOverlap(t *testing.T) {
	x := seq(5)
	cases := []struct {
		lo, hi     block.Key
		start, end int
	}{
		{0, 45, 0, 5},  // everything
		{12, 22, 1, 3}, // middle two
		{6, 9, 1, 1},   // gap: empty range positioned at block 1
		{46, 99, 5, 5}, // past the end
		{5, 10, 0, 2},  // touching boundaries of two blocks
		{15, 15, 1, 2}, // single key at a block max
	}
	for _, c := range cases {
		s, e := x.Overlap(c.lo, c.hi)
		if s != c.start || e != c.end {
			t.Errorf("Overlap(%d,%d) = [%d,%d), want [%d,%d)", c.lo, c.hi, s, e, c.start, c.end)
		}
	}
}

func TestReplaceRange(t *testing.T) {
	x := seq(4) // records = 12
	repl := []BlockMeta{
		meta(100, 10, 12, 2),
		meta(101, 13, 24, 4),
	}
	x.ReplaceRange(1, 3, repl) // replace blocks [10,15],[20,25]
	if x.Len() != 4 {
		t.Fatalf("Len = %d, want 4", x.Len())
	}
	if x.Records() != 3+2+4+3 {
		t.Fatalf("Records = %d, want 12", x.Records())
	}
	if err := x.Validate(4, 1); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if x.Meta(1).ID != 100 || x.Meta(2).ID != 101 {
		t.Errorf("replacement not in place: %+v", x.All())
	}
	// Delete-only replace.
	x.ReplaceRange(0, 2, nil)
	if x.Len() != 2 || x.Records() != 7 {
		t.Errorf("after delete-only: len=%d records=%d", x.Len(), x.Records())
	}
	// Insert-only replace at the end.
	x.ReplaceRange(2, 2, []BlockMeta{meta(200, 50, 60, 5)})
	if x.Len() != 3 || x.Records() != 12 {
		t.Errorf("after insert-only: len=%d records=%d", x.Len(), x.Records())
	}
	if err := x.Validate(5, 1); err != nil {
		t.Fatalf("Validate after edits: %v", err)
	}
}

func TestReplaceRangePanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range replace")
		}
	}()
	seq(2).ReplaceRange(1, 3, nil)
}

// TestValidateMetas is the table for the one Section II run checker every
// validator calls: one case per constraint, each waste exemption, and the
// boundaries that must pass. B = 10, ε = 0.2 throughout.
func TestValidateMetas(t *testing.T) {
	// run builds consecutive disjoint blocks with the given record counts.
	run := func(counts ...int) []BlockMeta {
		metas := make([]BlockMeta, len(counts))
		for i, c := range counts {
			metas[i] = meta(storage.BlockID(i+1), block.Key(i*100), block.Key(i*100+50), c)
		}
		return metas
	}
	cases := []struct {
		name  string
		metas []BlockMeta
		want  string // error substring; "" = must pass
	}{
		{"empty run", nil, ""},
		{"empty block", []BlockMeta{meta(1, 0, 5, 0)}, "fences"},
		{"min>max", []BlockMeta{meta(1, 6, 5, 1)}, "fences"},
		{"zero id", []BlockMeta{meta(0, 0, 5, 1)}, "fences"},
		{"overlap", []BlockMeta{meta(1, 0, 10, 6), meta(2, 10, 20, 6)}, "overlap"},
		{"out of order", []BlockMeta{meta(1, 20, 30, 6), meta(2, 0, 10, 6)}, "overlap"},
		{"overfull", run(10, 11), "overfull"},
		{"full blocks", run(10, 10, 10), ""},
		{"pairwise violated", run(10, 4, 6, 10), "pairwise"}, // 4+6 = B, needs > B
		{"pairwise boundary", run(10, 5, 6, 10), ""},         // 5+6 = B+1; waste 9/40 is packed to within a block
		{"level-wise violated", run(6, 6, 6), "level-wise"},  // waste 12/30 = 0.4
		{"level-wise boundary", run(8, 8, 8, 8, 8), ""},      // waste 10/50 = ε exactly
		{"just over ε", run(8, 8, 8, 8, 7), "level-wise"},    // waste 11/50
		{"exempt: single block", run(1), ""},                 // waste 0.9, one block
		{"exempt: maximally packed", run(10, 1), ""},         // waste 9/20 = 0.45, but < B empty slots
	}
	for _, tc := range cases {
		err := ValidateMetas(tc.metas, 10, 0.2)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestIndexValidateChecksAggregates: Index.Validate is ValidateMetas plus
// the cached totals.
func TestIndexValidateChecksAggregates(t *testing.T) {
	x := seq(3)
	if err := x.Validate(3, 0.2); err != nil {
		t.Fatal(err)
	}
	x.records++
	if err := x.Validate(3, 0.2); err == nil || !strings.Contains(err.Error(), "cached record count") {
		t.Errorf("drifted record total: %v", err)
	}
	if err := NewIndex([]BlockMeta{meta(1, 6, 5, 1)}).Validate(3, 0.2); err == nil {
		t.Error("Index.Validate passed a fence violation")
	}
}

func TestMinMaxKey(t *testing.T) {
	x := seq(3)
	if x.MinKey() != 0 || x.MaxKey() != 25 {
		t.Errorf("Min/Max = %d/%d, want 0/25", x.MinKey(), x.MaxKey())
	}
}

// Property: Overlap agrees with a brute-force scan for random indexes and
// query ranges.
func TestQuickOverlapMatchesBruteForce(t *testing.T) {
	f := func(seed int64, loRaw, span uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		metas := make([]BlockMeta, 0, n)
		k := block.Key(0)
		for i := 0; i < n; i++ {
			k += block.Key(rng.Intn(20) + 1)
			min := k
			k += block.Key(rng.Intn(20))
			metas = append(metas, meta(storage.BlockID(i+1), min, k, 1))
			k++
		}
		x := NewIndex(metas)
		lo := block.Key(loRaw % 700)
		hi := lo + block.Key(span%100)
		s, e := x.Overlap(lo, hi)
		for i, m := range metas {
			overlaps := m.Max >= lo && m.Min <= hi
			inRange := i >= s && i < e
			if overlaps != inRange {
				return false
			}
		}
		return s >= 0 && e >= s && e <= len(metas)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: any sequence of valid ReplaceRange operations keeps the record
// count and validation invariants.
func TestQuickReplaceRangeInvariants(t *testing.T) {
	f := func(seed int64, opsN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := seq(10)
		for op := 0; op < int(opsN)%20; op++ {
			i := rng.Intn(x.Len() + 1)
			j := i + rng.Intn(x.Len()-i+1)
			// Build replacement metas that fit strictly between the
			// neighbours' key ranges.
			var lo, hi int64 = 0, 1 << 40
			if i > 0 {
				lo = int64(x.Meta(i-1).Max) + 1
			}
			if j < x.Len() {
				hi = int64(x.Meta(j).Min) - 1
			}
			var repl []BlockMeta
			if hi > lo {
				nrepl := rng.Intn(3)
				width := (hi - lo) / int64(nrepl+1)
				if width >= 2 {
					for r := 0; r < nrepl; r++ {
						base := lo + int64(r)*width
						repl = append(repl, meta(storage.BlockID(1000+op*10+r),
							block.Key(base), block.Key(base+width-2), 5))
					}
				}
			}
			x.ReplaceRange(i, j, repl)
			if x.Validate(5, 1) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
