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

// TestComposeNamesAndAxes: a policy composes one choice per axis. Leveling
// keeps legacy names byte-identical; other layouts are tagged.
func TestComposeNamesAndAxes(t *testing.T) {
	p := NewMixed(0.1, true, nil, false)
	if p.Name() != "Mixed" || !p.Preserve() {
		t.Errorf("Name = %q, Preserve = %v", p.Name(), p.Preserve())
	}
	ti := p.WithLayout(Layout{Kind: Tiering, TierRuns: 4})
	if ti.Name() != "Mixed@tiering(4)" {
		t.Errorf("tiering Name = %q", ti.Name())
	}
	lz := NewChooseBest(0.1, false).WithLayout(Layout{Kind: LazyLeveling})
	if lz.Name() != "ChooseBest-P@lazy(4)" {
		t.Errorf("lazy Name = %q", lz.Name())
	}
	// WithLayout shares granularity state but not the layout.
	if p.Layout().Kind != Leveling || ti.Layout().Kind != Tiering {
		t.Error("Layout wrong")
	}
	m, _ := p.Mixed()
	if mt, _ := ti.Mixed(); mt != m {
		t.Error("WithLayout must share the granularity")
	}
}
