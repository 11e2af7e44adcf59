package level

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/storage"
)

// newLevel returns a level with B=4, ε=0.2, K=100 over a fresh MemDevice.
func newLevel(t *testing.T) (*Level, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice()
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 100})
	return l, dev
}

// load fills the level with blocks of the given record counts, with keys
// spaced 10 apart across blocks.
func load(t *testing.T, l *Level, counts ...int) {
	t.Helper()
	var metas []btree.BlockMeta
	k := block.Key(0)
	for _, c := range counts {
		rs := make([]block.Record, c)
		for i := range rs {
			rs[i] = block.Record{Key: k, Payload: []byte("v")}
			k++
		}
		k += 10
		m, err := l.WriteNew(block.New(rs))
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	if err := l.ReplaceRange(0, 0, metas, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeAndWasteAccounting(t *testing.T) {
	l, _ := newLevel(t)
	load(t, l, 4, 4, 2) // 10 records in 3 blocks, B=4
	if l.Blocks() != 3 || l.Records() != 10 {
		t.Fatalf("blocks/records = %d/%d", l.Blocks(), l.Records())
	}
	if got := l.RequiredBlocks(); got != 3 {
		t.Errorf("RequiredBlocks = %d, want 3", got)
	}
	if w := l.WasteFactor(); w < 0.16 || w > 0.17 {
		t.Errorf("WasteFactor = %f, want 2/12", w)
	}
	if !l.WasteOK() {
		t.Error("waste 2/12 should satisfy ε=0.2")
	}
}

func TestFullTrigger(t *testing.T) {
	dev := storage.NewMemDevice()
	l := New(Config{Device: dev, BlockCapacity: 4, Epsilon: 0.2, Capacity: 3})
	load(t, l, 4, 4) // 8 records -> 2 required blocks < 3
	if l.Full() {
		t.Error("level full too early")
	}
	load2 := func() {
		m, err := l.WriteNew(block.New([]block.Record{{Key: 1000}, {Key: 1001}, {Key: 1002}, {Key: 1003}}))
		if err != nil {
			t.Fatal(err)
		}
		l.ReplaceRange(l.Blocks(), l.Blocks(), []btree.BlockMeta{m}, nil)
	}
	load2() // 12 records -> 3 required blocks
	if !l.Full() {
		t.Error("level not full at capacity")
	}
}

func TestPairOKAndRepair(t *testing.T) {
	l, dev := newLevel(t)
	load(t, l, 2, 2, 4) // blocks 0,1 violate pairwise (2+2 <= 4)
	if l.PairOK(0) {
		t.Fatal("PairOK(0) should fail: 2+2 <= B")
	}
	if !l.PairOK(1) {
		t.Fatal("PairOK(1) should hold: 2+4 > B")
	}
	before := dev.Counters().Writes
	repaired, err := l.RepairPair(0)
	if err != nil || !repaired {
		t.Fatalf("RepairPair = %v, %v", repaired, err)
	}
	if dev.Counters().Writes != before+1 {
		t.Errorf("repair cost %d writes, want 1", dev.Counters().Writes-before)
	}
	if l.Blocks() != 2 || l.Records() != 8 {
		t.Errorf("after repair blocks/records = %d/%d, want 2/8", l.Blocks(), l.Records())
	}
	if err := l.ValidateContents(); err != nil {
		t.Errorf("ValidateContents after repair: %v", err)
	}
	// Repair of a healthy pair is a no-op.
	repaired, err = l.RepairPair(0)
	if err != nil || repaired {
		t.Errorf("no-op repair = %v, %v", repaired, err)
	}
}

func TestCompact(t *testing.T) {
	l, dev := newLevel(t)
	load(t, l, 3, 3, 3, 3) // 12 records in 4 blocks: waste 4/16 = 0.25 > ε
	if l.WasteOK() {
		t.Fatal("waste 0.25 should violate ε=0.2")
	}
	before := dev.Counters()
	written, err := l.MaybeCompact()
	if err != nil {
		t.Fatal(err)
	}
	if written != 3 {
		t.Errorf("compaction wrote %d blocks, want 3 (12 records / B=4)", written)
	}
	after := dev.Counters()
	if after.Writes-before.Writes != 3 {
		t.Errorf("device writes = %d, want 3", after.Writes-before.Writes)
	}
	if after.Live != 3 {
		t.Errorf("live blocks = %d, want 3 (old blocks freed)", after.Live)
	}
	if err := l.ValidateContents(); err != nil {
		t.Errorf("ValidateContents after compact: %v", err)
	}
	if l.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", l.Compactions)
	}
	// Now compact is a no-op.
	if written, err = l.MaybeCompact(); err != nil || written != 0 {
		t.Errorf("MaybeCompact on clean level = %d, %v", written, err)
	}
}

func TestCompactResetsSlack(t *testing.T) {
	l, _ := newLevel(t)
	load(t, l, 3, 3, 3, 3)
	l.GrantSlack(10)
	l.AddSlackUsed(5)
	if _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.SlackUsed() != 0 {
		t.Errorf("slack used after compact = %d, want 0", l.SlackUsed())
	}
	if l.SlackLimit() != -l.BlockCapacity()+1 {
		t.Errorf("slack limit after compact = %d, want %d", l.SlackLimit(), -l.BlockCapacity()+1)
	}
}

func TestSlackAccounting(t *testing.T) {
	l, _ := newLevel(t)
	// ε=0.2, B=4: granting a 10-block merge allows floor(0.2*10*4)=8 slots.
	l.GrantSlack(10)
	if got := l.SlackLimit(); got != 8-4+1 {
		t.Errorf("SlackLimit = %d, want 5", got)
	}
	l.GrantSlack(10)
	if got := l.SlackLimit(); got != 16-4+1 {
		t.Errorf("SlackLimit after second grant = %d, want 13", got)
	}
	l.AddSlackUsed(3)
	l.AddSlackUsed(-1)
	if l.SlackUsed() != 2 {
		t.Errorf("SlackUsed = %d, want 2", l.SlackUsed())
	}
}

func TestGetAndAscend(t *testing.T) {
	l, _ := newLevel(t)
	load(t, l, 4, 4, 4) // keys 0..3, 14..17, 28..31
	r, ok, err := l.Get(15)
	if err != nil || !ok || r.Key != 15 {
		t.Fatalf("Get(15) = %v,%v,%v", r, ok, err)
	}
	if _, ok, _ := l.Get(7); ok {
		t.Error("Get(7) found a key in a gap")
	}
	var keys []block.Key
	if err := l.Ascend(3, 28, func(r block.Record) bool {
		keys = append(keys, r.Key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []block.Key{3, 14, 15, 16, 17, 28}
	if len(keys) != len(want) {
		t.Fatalf("Ascend keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Ascend keys = %v, want %v", keys, want)
		}
	}
}

func TestReplaceRangePreservesKeptBlocks(t *testing.T) {
	l, dev := newLevel(t)
	load(t, l, 4, 4, 4)
	keepID := l.Index().Meta(1).ID
	// Replace blocks 0-2 but keep block 1's storage (as a preserving
	// merge would when reusing it in the output).
	kept := l.Index().Meta(1)
	if err := l.ReplaceRange(0, 3, []btree.BlockMeta{kept}, map[storage.BlockID]bool{keepID: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Peek(keepID); err != nil {
		t.Error("kept block was freed")
	}
	if dev.Counters().Live != 1 {
		t.Errorf("live = %d, want 1", dev.Counters().Live)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	l, _ := newLevel(t)
	load(t, l, 1, 1) // pairwise violation: 1+1 <= 4
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "pairwise") {
		t.Errorf("Validate with pairwise violation = %v", err)
	}
	l2, _ := newLevel(t)
	load(t, l2, 2, 4, 2) // waste 4/12 = 0.33 > 0.2, pairwise OK, >= B slots empty
	if err := l2.Validate(); err == nil || !strings.Contains(err.Error(), "level-wise") {
		t.Errorf("Validate with level-wise violation = %v", err)
	}
}

// Property: Compact always produces a valid, maximally packed level with
// the same record sequence.
func TestQuickCompactPreservesRecords(t *testing.T) {
	f := func(seed int64, nBlocks uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := storage.NewMemDevice()
		l := New(Config{Device: dev, BlockCapacity: 5, Epsilon: 0.2, Capacity: 1000})
		n := int(nBlocks)%12 + 1
		var want []block.Key
		k := block.Key(0)
		var metas []btree.BlockMeta
		for i := 0; i < n; i++ {
			c := rng.Intn(5) + 1
			rs := make([]block.Record, c)
			for j := range rs {
				rs[j] = block.Record{Key: k}
				want = append(want, k)
				k += block.Key(rng.Intn(3) + 1)
			}
			k += 5
			m, err := l.WriteNew(block.New(rs))
			if err != nil {
				return false
			}
			metas = append(metas, m)
		}
		l.ReplaceRange(0, 0, metas, nil)
		if _, err := l.Compact(); err != nil {
			return false
		}
		if err := l.ValidateContents(); err != nil {
			return false
		}
		var got []block.Key
		l.Ascend(0, 1<<62, func(r block.Record) bool {
			got = append(got, r.Key)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		// Maximal packing: all blocks full except possibly the last.
		for i := 0; i+1 < l.Blocks(); i++ {
			if l.Index().Meta(i).Count != 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
