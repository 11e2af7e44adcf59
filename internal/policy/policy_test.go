package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
)

// fakeView is a scripted View for policy unit tests.
type fakeView struct {
	height   int
	src, tgt []btree.BlockMeta
	caps     map[int]int
	sizes    map[int]int
	from     int
}

func (f *fakeView) Height() int { return f.height }
func (f *fakeView) SourceMetas(from int) []btree.BlockMeta {
	if from != f.from {
		panic("unexpected from")
	}
	return f.src
}
func (f *fakeView) TargetMetas(from int) []btree.BlockMeta { return f.tgt }
func (f *fakeView) CapacityBlocks(level int) int           { return f.caps[level] }
func (f *fakeView) SizeBlocks(level int) int               { return f.sizes[level] }

// metas builds n block metas, block i spanning [base+i*10, base+i*10+5].
func metas(n int, base block.Key) []btree.BlockMeta {
	out := make([]btree.BlockMeta, n)
	for i := range out {
		out[i] = btree.BlockMeta{
			ID:    1,
			Min:   base + block.Key(i*10),
			Max:   base + block.Key(i*10+5),
			Count: 4,
		}
	}
	return out
}

func TestNames(t *testing.T) {
	cases := map[string]*Policy{
		"Full":         NewFull(true),
		"Full-P":       NewFull(false),
		"RR":           NewRR(0.1, true),
		"RR-P":         NewRR(0.1, false),
		"ChooseBest":   NewChooseBest(0.1, true),
		"ChooseBest-P": NewChooseBest(0.1, false),
		"TestMixed":    NewTestMixed(0.1, true),
		"Mixed":        NewMixed(0.1, true, nil, false),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
	if NewFull(true).Preserve() != true || NewFull(false).Preserve() != false {
		t.Error("Preserve flag not plumbed")
	}
}

func TestFullAlwaysFull(t *testing.T) {
	v := &fakeView{height: 3, src: metas(10, 0), caps: map[int]int{1: 10}, from: 1}
	d := NewFull(true).Decide(v, 1)
	if !d.Full {
		t.Error("Full policy returned a partial decision")
	}
}

func TestRRRoundRobinAndWrap(t *testing.T) {
	// 10 source blocks, δK = 3: windows [0,3), [3,6), [6,9), [9,10),
	// then wrap to [0,3).
	v := &fakeView{height: 3, src: metas(10, 0), caps: map[int]int{1: 30}, from: 1}
	p := NewRR(0.1, true) // δK = 3
	wantWindows := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}, {0, 3}}
	for i, want := range wantWindows {
		d := p.Decide(v, 1)
		if d.Full || d.From != want[0] || d.To != want[1] {
			t.Fatalf("decision %d = %+v, want [%d,%d)", i, d, want[0], want[1])
		}
	}
}

func TestRRCursorTracksKeysNotPositions(t *testing.T) {
	// After merging blocks whose max key is 25, new blocks may appear;
	// RR must resume after key 25 regardless of positions.
	v := &fakeView{height: 3, src: metas(6, 0), caps: map[int]int{1: 20}, from: 1}
	p := NewRR(0.1, true) // δK = 2
	d := p.Decide(v, 1)   // [0,2): max key 15
	if d.From != 0 || d.To != 2 {
		t.Fatalf("first decision = %+v", d)
	}
	// Source changed: the merged range was drained, new blocks shifted.
	v.src = metas(4, 20) // keys from 20 onwards; first Min>15 is block 0 (Min 20)
	d = p.Decide(v, 1)
	if d.From != 0 || d.To != 2 {
		t.Fatalf("post-drain decision = %+v, want [0,2)", d)
	}
	// Cursor is now 35 (max key of block 1); next window starts at the
	// first block with Min > 35, i.e. block 2.
	d = p.Decide(v, 1)
	if d.From != 2 || d.To != 4 {
		t.Fatalf("third decision = %+v, want [2,4)", d)
	}
}

func TestRRLevelsGrew(t *testing.T) {
	v := &fakeView{height: 3, src: metas(6, 0), caps: map[int]int{1: 20}, from: 1}
	p := NewRR(0.1, true)
	p.Decide(v, 1)
	p.LevelsGrew(1)
	rr, _ := p.RR()
	if _, ok := rr.cursor[1]; ok {
		t.Error("cursor not moved off relabelled level")
	}
	if c, ok := rr.cursor[2]; !ok || !c.set {
		t.Error("cursor not carried to the new index")
	}
}

func TestChooseBestPicksLeastOverlap(t *testing.T) {
	// Source: 4 blocks. Target blocks positioned so that source window
	// [2,4) overlaps nothing and must be chosen (w=2).
	src := []btree.BlockMeta{
		{ID: 1, Min: 0, Max: 9, Count: 4},
		{ID: 1, Min: 10, Max: 19, Count: 4},
		{ID: 1, Min: 100, Max: 109, Count: 4},
		{ID: 1, Min: 110, Max: 119, Count: 4},
	}
	tgt := []btree.BlockMeta{
		{ID: 1, Min: 0, Max: 5, Count: 4},
		{ID: 1, Min: 6, Max: 12, Count: 4},
		{ID: 1, Min: 13, Max: 30, Count: 4},
	}
	v := &fakeView{height: 3, src: src, tgt: tgt, caps: map[int]int{1: 20}, from: 1}
	d := NewChooseBest(0.1, true).Decide(v, 1) // δK = 2
	if d.Full || d.From != 2 || d.To != 4 {
		t.Errorf("decision = %+v, want window [2,4)", d)
	}
}

func TestChooseBestWholeLevelWhenWindowCoversIt(t *testing.T) {
	v := &fakeView{height: 3, src: metas(3, 0), caps: map[int]int{1: 100}, from: 1}
	d := NewChooseBest(0.1, true).Decide(v, 1) // δK = 10 > 3 blocks
	if d.From != 0 || d.To != 3 {
		t.Errorf("decision = %+v, want [0,3)", d)
	}
}

func TestTestMixedFullIntoBottomOnly(t *testing.T) {
	p := NewTestMixed(0.1, true)
	// from=1 into level 2 of a 3-level tree: bottom -> Full.
	v := &fakeView{height: 3, src: metas(5, 0), caps: map[int]int{1: 20}, from: 1}
	if d := p.Decide(v, 1); !d.Full {
		t.Error("merge into bottom not Full")
	}
	// from=0 into level 1: partial.
	v = &fakeView{height: 3, src: metas(5, 0), caps: map[int]int{0: 20}, from: 0}
	if d := p.Decide(v, 0); d.Full {
		t.Error("merge from L0 is Full")
	}
}

func TestMixedThresholds(t *testing.T) {
	taus := map[int]float64{2: 0.5}
	p := NewMixed(0.1, true, taus, true)
	m, ok := p.Mixed()
	if !ok {
		t.Fatal("Mixed() failed on a Mixed policy")
	}
	// 4-level tree; merge from L1 into internal L2 with S(L2) below
	// τ·K: Full.
	v := &fakeView{
		height: 4,
		src:    metas(5, 0),
		caps:   map[int]int{1: 20, 2: 100},
		sizes:  map[int]int{2: 49},
		from:   1,
	}
	if d := p.Decide(v, 1); !d.Full {
		t.Error("S(L2)=49 < 0.5*100: want Full")
	}
	v.sizes[2] = 50
	if d := p.Decide(v, 1); d.Full {
		t.Error("S(L2)=50 >= 0.5*100: want partial")
	}
	// Merge into bottom follows β.
	v2 := &fakeView{height: 4, src: metas(5, 0), caps: map[int]int{2: 100}, from: 2}
	if d := p.Decide(v2, 2); !d.Full {
		t.Error("β=true: want Full into bottom")
	}
	m.SetBeta(false)
	if d := p.Decide(v2, 2); d.Full {
		t.Error("β=false: want partial into bottom")
	}
	// Merges out of L0 are always partial.
	v3 := &fakeView{height: 4, src: metas(5, 0), caps: map[int]int{0: 20, 1: 10}, sizes: map[int]int{1: 0}, from: 0}
	m.SetTau(1, 1.0)
	if d := p.Decide(v3, 0); d.Full {
		t.Error("merge out of L0 must be partial regardless of τ1")
	}
}

func TestMixedDefaultsToChooseBest(t *testing.T) {
	p := NewMixed(0.1, true, nil, false)
	v := &fakeView{
		height: 4,
		src:    metas(5, 0),
		caps:   map[int]int{1: 20, 2: 100},
		sizes:  map[int]int{2: 0},
		from:   1,
	}
	if d := p.Decide(v, 1); d.Full {
		t.Error("zero-parameter Mixed made a full merge")
	}
}

// Property: bestWindow agrees with a brute-force scan.
func TestQuickBestWindowMatchesBruteForce(t *testing.T) {
	mkMetas := func(rng *rand.Rand, n int) []btree.BlockMeta {
		out := make([]btree.BlockMeta, 0, n)
		k := block.Key(0)
		for i := 0; i < n; i++ {
			k += block.Key(rng.Intn(15) + 1)
			min := k
			k += block.Key(rng.Intn(15))
			out = append(out, btree.BlockMeta{ID: 1, Min: min, Max: k, Count: 4})
			k++
		}
		return out
	}
	overlaps := func(tgt []btree.BlockMeta, min, max block.Key) int {
		c := 0
		for _, m := range tgt {
			if m.Max >= min && m.Min <= max {
				c++
			}
		}
		return c
	}
	f := func(seed int64, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		src := mkMetas(rng, rng.Intn(20)+1)
		tgt := mkMetas(rng, rng.Intn(20))
		w := int(wRaw)%len(src) + 1
		got := bestWindow(src, tgt, w, 1)
		if w >= len(src) {
			return got == 0
		}
		gotCount := overlaps(tgt, src[got].Min, src[got+w-1].Max)
		for s := 0; s+w <= len(src); s++ {
			if c := overlaps(tgt, src[s].Min, src[s+w-1].Max); c < gotCount {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: RR decisions always yield valid non-empty windows and cycle
// through the whole level.
func TestQuickRRCoversLevel(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw)%30 + 1
		src := metas(n, 0)
		v := &fakeView{height: 3, src: src, caps: map[int]int{1: int(wRaw)%50 + 1}, from: 1}
		p := NewRR(0.1, true)
		covered := make([]bool, n)
		for i := 0; i < 10*n; i++ {
			d := p.Decide(v, 1)
			if d.Full || d.From < 0 || d.To <= d.From || d.To > n {
				return false
			}
			for j := d.From; j < d.To; j++ {
				covered[j] = true
			}
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
