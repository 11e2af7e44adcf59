package policy

import "testing"

// Satellite regression: the partial-merge window is the paper's ⌊δ·K_i⌋
// measured in required blocks. Under relaxed storage a fragmented level
// can present more physical blocks (len(SourceMetas)) than its record
// population requires (SizeBlocks); the window must follow the size, not
// the fragmentation.
func TestWindowBlocksFragmentedLevel(t *testing.T) {
	v := &fakeView{
		height: 3,
		src:    metas(20, 0),        // 20 partially-filled physical blocks
		caps:   map[int]int{1: 100}, // K_1 = 100 → ⌊δK⌋ = 10
		sizes:  map[int]int{1: 4},   // but only 4 required blocks of records
		from:   1,
	}
	if w := windowBlocks(v, 1, 0.1); w != 4 {
		t.Errorf("windowBlocks on fragmented level = %d, want 4 (SizeBlocks)", w)
	}
	// When the level genuinely holds δK worth of records the window is the
	// paper's ⌊δ·K_i⌋ regardless of block count.
	v.sizes[1] = 50
	if w := windowBlocks(v, 1, 0.1); w != 10 {
		t.Errorf("windowBlocks = %d, want ⌊δK⌋ = 10", w)
	}
	// Window never exceeds the physical block count either.
	v.src = metas(3, 0)
	if w := windowBlocks(v, 1, 0.1); w != 3 {
		t.Errorf("windowBlocks = %d, want 3 (len metas)", w)
	}
	// And is at least one block.
	v.src = metas(5, 0)
	v.sizes[1] = 2
	if w := windowBlocks(v, 1, 0.001); w != 1 {
		t.Errorf("windowBlocks = %d, want 1 (floor)", w)
	}
}

func TestParseLayout(t *testing.T) {
	for s, want := range map[string]LayoutKind{
		"leveling": Leveling, "tiering": Tiering, "lazy": LazyLeveling, "lazy-leveling": LazyLeveling,
	} {
		got, err := ParseLayout(s)
		if err != nil || got != want {
			t.Errorf("ParseLayout(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLayout("stacked"); err == nil {
		t.Error("ParseLayout accepted an unknown layout")
	}
}

func TestLayoutTieredAndMaxRuns(t *testing.T) {
	const h = 4 // levels 0..3, bottom = 3
	lv := Layout{Kind: Leveling}
	ti := Layout{Kind: Tiering, TierRuns: 3}
	lz := Layout{Kind: LazyLeveling, TierRuns: 3}
	for i := 1; i < h; i++ {
		if lv.Tiered(i, h) || lv.MaxRuns(i, h) != 1 {
			t.Errorf("leveling level %d: tiered or MaxRuns != 1", i)
		}
		if !ti.Tiered(i, h) || ti.MaxRuns(i, h) != 3 {
			t.Errorf("tiering level %d: not tiered with T=3", i)
		}
	}
	if !lz.Tiered(1, h) || !lz.Tiered(2, h) {
		t.Error("lazy leveling: upper levels must be tiered")
	}
	if lz.Tiered(3, h) || lz.MaxRuns(3, h) != 1 {
		t.Error("lazy leveling: bottom level must be leveled")
	}
	// TierRuns defaults when unset on a tiered kind.
	if (Layout{Kind: Tiering}).MaxRuns(1, h) != DefaultTierRuns {
		t.Error("TierRuns not defaulted")
	}
}

func TestLevelOverflowTrigger(t *testing.T) {
	tr := LevelOverflow{}
	// L0 fires on records.
	if tr.Fire(LevelState{Level: 0, Records: 31, CapacityRecords: 32}) {
		t.Error("L0 fired below capacity")
	}
	if !tr.Fire(LevelState{Level: 0, Records: 32, CapacityRecords: 32}) {
		t.Error("L0 did not fire at capacity")
	}
	// Storage levels fire on required blocks.
	if tr.Fire(LevelState{Level: 1, SizeBlocks: 9, CapacityBlocks: 10, MaxRuns: 1, Runs: 1}) {
		t.Error("level fired below capacity")
	}
	if !tr.Fire(LevelState{Level: 1, SizeBlocks: 10, CapacityBlocks: 10, MaxRuns: 1, Runs: 1}) {
		t.Error("level did not fire at capacity")
	}
	// Tiered levels also fire when the run budget is exhausted.
	if tr.Fire(LevelState{Level: 1, SizeBlocks: 2, CapacityBlocks: 10, MaxRuns: 4, Runs: 3}) {
		t.Error("tiered level fired below run budget")
	}
	if !tr.Fire(LevelState{Level: 1, SizeBlocks: 2, CapacityBlocks: 10, MaxRuns: 4, Runs: 4}) {
		t.Error("tiered level did not fire at run budget")
	}
}

func TestSizeRatioTrigger(t *testing.T) {
	tr := SizeRatio{Ratio: 0.5}
	if !tr.Fire(LevelState{Level: 1, SizeBlocks: 5, CapacityBlocks: 10, MaxRuns: 1, Runs: 1}) {
		t.Error("did not fire at half capacity")
	}
	if tr.Fire(LevelState{Level: 1, SizeBlocks: 4, CapacityBlocks: 10, MaxRuns: 1, Runs: 1}) {
		t.Error("fired below the ratio")
	}
	if !tr.Fire(LevelState{Level: 0, Records: 16, CapacityRecords: 32}) {
		t.Error("L0 did not fire at the ratio")
	}
}

func TestTombstoneDebtTrigger(t *testing.T) {
	tr := TombstoneDebt{MaxFraction: 0.3}
	base := LevelState{Level: 1, SizeBlocks: 5, CapacityBlocks: 10, MaxRuns: 1, Runs: 1, Records: 100}
	s := base
	s.Tombstones = 30
	if tr.Fire(s) {
		t.Error("fired at exactly the fraction")
	}
	s.Tombstones = 31
	if !tr.Fire(s) {
		t.Error("did not fire above the fraction")
	}
	// Still subsumes level overflow.
	s = base
	s.SizeBlocks = 10
	if !tr.Fire(s) {
		t.Error("overflow not subsumed")
	}
}

func TestComposeNamesAndAxes(t *testing.T) {
	// Leveling keeps legacy names byte-identical; other layouts are tagged.
	p := NewChooseBest(0.1, true)
	if p.Name() != "ChooseBest" {
		t.Errorf("Name = %q", p.Name())
	}
	ti := p.WithLayout(Layout{Kind: Tiering, TierRuns: 4})
	if ti.Name() != "ChooseBest@tiering(4)" {
		t.Errorf("tiering Name = %q", ti.Name())
	}
	lz := p.WithLayout(Layout{Kind: LazyLeveling})
	if lz.Name() != "ChooseBest@lazy(4)" {
		t.Errorf("lazy Name = %q", lz.Name())
	}
	// WithLayout shares granularity state but not the layout.
	if p.Layout().Kind != Leveling || ti.Layout().Kind != Tiering {
		t.Error("Layout wrong")
	}
	if ti.Granularity() != p.Granularity() {
		t.Error("WithLayout must share the granularity")
	}
	// Defaults: zero Spec is the paper's point of the space.
	c := Compose(Spec{})
	if c.Name() != "Full" || !c.Preserve() || c.Trigger().Name() != "level-overflow" {
		t.Errorf("zero Spec compiled to %q preserve=%v trigger=%q", c.Name(), c.Preserve(), c.Trigger().Name())
	}
	// WithTrigger swaps only the trigger.
	st := p.WithTrigger(SizeRatio{Ratio: 0.5})
	if st.Trigger().Name() != "size-ratio(0.50)" || st.Name() != p.Name() {
		t.Error("WithTrigger wrong")
	}
}
