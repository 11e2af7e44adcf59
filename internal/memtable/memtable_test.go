package memtable

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
)

func rec(k block.Key) block.Record {
	return block.Record{Key: k, Payload: []byte{byte(k)}}
}

func TestPutGetOverwrite(t *testing.T) {
	m := New(1)
	m.Put(rec(5))
	m.Put(rec(3))
	m.Put(rec(7))
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	r, ok := m.Get(5)
	if !ok || r.Key != 5 {
		t.Fatalf("Get(5) = %v,%v", r, ok)
	}
	if _, ok := m.Get(4); ok {
		t.Fatal("Get(4) found a missing key")
	}
	// Overwrite does not grow the table and replaces the record.
	m.Put(block.Record{Key: 5, Tombstone: true})
	if m.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", m.Len())
	}
	r, _ = m.Get(5)
	if !r.Tombstone {
		t.Fatal("overwrite with tombstone not visible")
	}
}

func TestBytesAccounting(t *testing.T) {
	m := New(1)
	m.Put(block.Record{Key: 1, Payload: make([]byte, 10)})
	if m.Bytes() != 18 {
		t.Fatalf("Bytes = %d, want 18", m.Bytes())
	}
	m.Put(block.Record{Key: 1, Payload: make([]byte, 4)})
	if m.Bytes() != 12 {
		t.Fatalf("Bytes after overwrite = %d, want 12", m.Bytes())
	}
	m.TakeRange(1, 1)
	if m.Bytes() != 0 {
		t.Fatalf("Bytes after TakeRange = %d, want 0", m.Bytes())
	}
}

// TestDelete removes single keys with TakeRange(k, k), the physical
// delete merges use; a logical delete is a Put of a tombstone.
func TestDelete(t *testing.T) {
	m := New(1)
	for k := block.Key(0); k < 100; k++ {
		m.Put(rec(k))
	}
	for k := block.Key(0); k < 100; k += 2 {
		if out := m.TakeRange(k, k); len(out) != 1 || out[0].Key != k {
			t.Fatalf("TakeRange(%d, %d) = %v", k, k, out)
		}
	}
	before := ascendRecs(m, 0, ^block.Key(0))
	if out := m.TakeRange(2, 2); len(out) != 0 || m.Len() != len(before) || !sameRecs(ascendRecs(m, 0, ^block.Key(0)), before) {
		t.Fatalf("second TakeRange(2, 2) = %v, Len %d -> %d", out, len(before), m.Len())
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d, want 50", m.Len())
	}
	for k := block.Key(1); k < 100; k += 2 {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("odd key %d lost", k)
		}
	}
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
}

func TestAscendRange(t *testing.T) {
	m := New(1)
	for _, k := range []block.Key{10, 20, 30, 40, 50} {
		m.Put(rec(k))
	}
	var got []block.Key
	m.Ascend(15, 45, func(r block.Record) bool {
		got = append(got, r.Key)
		return true
	})
	want := []block.Key{20, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("Ascend got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend got %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	m.Ascend(0, 100, func(block.Record) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestTakeRange(t *testing.T) {
	m := New(1)
	for k := block.Key(1); k <= 10; k++ {
		m.Put(rec(k))
	}
	out := m.TakeRange(3, 7)
	if len(out) != 5 {
		t.Fatalf("TakeRange returned %d records, want 5", len(out))
	}
	for i, r := range out {
		if r.Key != block.Key(3+i) {
			t.Fatalf("TakeRange out of order: %v", out)
		}
	}
	if m.Len() != 5 {
		t.Fatalf("Len after TakeRange = %d, want 5", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("taken key still present")
	}
}

func TestVirtualBlocks(t *testing.T) {
	m := New(1)
	for k := block.Key(0); k < 10; k++ {
		m.Put(rec(k * 10))
	}
	metas := m.VirtualBlocks(4)
	if len(metas) != 3 {
		t.Fatalf("got %d virtual blocks, want 3", len(metas))
	}
	if metas[0].Min != 0 || metas[0].Max != 30 || metas[0].Count != 4 {
		t.Errorf("meta[0] = %+v", metas[0])
	}
	if metas[2].Min != 80 || metas[2].Max != 90 || metas[2].Count != 2 {
		t.Errorf("meta[2] = %+v", metas[2])
	}
	if got := m.VirtualBlocks(100); len(got) != 1 || got[0].Count != 10 {
		t.Errorf("single virtual block = %+v", got)
	}
}

func TestAllSorted(t *testing.T) {
	m := New(42)
	rng := rand.New(rand.NewSource(7))
	want := map[block.Key]bool{}
	for i := 0; i < 1000; i++ {
		k := block.Key(rng.Intn(500))
		m.Put(rec(k))
		want[k] = true
	}
	all := ascendRecs(m, 0, ^block.Key(0))
	if len(all) != len(want) {
		t.Fatalf("Ascend returned %d records, want %d", len(all), len(want))
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Fatal("Ascend not sorted")
	}
}

// Property: the memtable behaves exactly like a map + sort under random
// puts, single-key TakeRanges, window TakeRanges and window
// RemoveUnchanged against an older snapshot over 16-bit keys, deep enough
// for three levels, and keeps its structure valid throughout.
func TestQuickModelCheck(t *testing.T) {
	f := func(ops []uint32) bool {
		m := New(0)
		model := map[block.Key][]byte{}
		var snap *Snapshot
		var frozen map[block.Key][]byte
		for _, op := range ops {
			k := block.Key(op >> 16)
			switch op % 32 {
			case 0:
				m.TakeRange(k, k)
				delete(model, k)
			case 2:
				snap, frozen = m.Snapshot(), maps.Clone(model)
			case 3:
				if snap == nil {
					continue
				}
				hi := k + block.Key(op>>5%1024)
				want := 0
				for mk, p := range model {
					if old, ok := frozen[mk]; ok && mk >= k && mk <= hi && &old[0] == &p[0] {
						delete(model, mk)
						want++
					}
				}
				if m.RemoveUnchanged(k, hi, snap) != want {
					return false
				}
			case 1:
				hi := k + block.Key(op>>5%256)
				out := m.TakeRange(k, hi)
				for i, r := range out {
					if _, ok := model[r.Key]; !ok || r.Key < k || r.Key > hi || i > 0 && out[i-1].Key >= r.Key {
						return false
					}
					delete(model, r.Key)
				}
				for mk := k; mk <= hi; mk++ {
					if _, ok := model[mk]; ok {
						return false
					}
				}
			default:
				p := []byte{byte(op)}
				m.Put(block.Record{Key: k, Payload: p})
				model[k] = p
			}
		}
		if m.Len() != len(model) || m.check() != nil {
			return false
		}
		for k, p := range model {
			r, ok := m.Get(k)
			if !ok || len(r.Payload) != 1 || r.Payload[0] != p[0] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(v []reflect.Value, rng *rand.Rand) {
		ops := make([]uint32, rng.Intn(8000))
		for i := range ops {
			ops[i] = rng.Uint32()
		}
		v[0] = reflect.ValueOf(ops)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDrainRefillKeepsHeight runs the L0 merge cycle: fill to 8,192
// records, take a 7 % window out, refill. The fill rule must keep the
// height and the leaf count where a freshly filled tree has them.
func TestDrainRefillKeepsHeight(t *testing.T) {
	const window = full * 7 / 100
	m := New(0)
	rng := rand.New(rand.NewSource(11))
	tallest, widest := 0, 0
	for cycle := 0; cycle < 200; cycle++ {
		for m.Len() < full {
			m.Put(rec(block.Key(rng.Uint64())))
		}
		if err := m.check(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		h, l := m.shape()
		tallest, widest = max(tallest, h), max(widest, l)
		keys := ascendRecs(m, 0, ^block.Key(0))
		at := rng.Intn(full - window)
		if out := m.TakeRange(keys[at].Key, keys[at+window-1].Key); len(out) != window {
			t.Fatalf("cycle %d: took %d records, want %d", cycle, len(out), window)
		}
		if err := m.check(); err != nil {
			t.Fatalf("cycle %d after TakeRange: %v", cycle, err)
		}
	}
	if tallest > 3 || widest > full/(leafCap/2) {
		t.Fatalf("after 200 cycles: height up to %d, leaves up to %d; want <= 3 and <= %d", tallest, widest, full/(leafCap/2))
	}
}

// TestPutAllocsIndependentOfL0: a Put with no Snapshot since the previous
// one changes its nodes in place and allocates nothing but the occasional
// split; the first Put after a Snapshot copies one root-to-leaf path, so
// its allocations grow with the height, not with the table.
func TestPutAllocsIndependentOfL0(t *testing.T) {
	var inPlace, afterSnap [2]float64
	for i, n := range []int{1000, 8192} {
		m := New(0)
		rng := rand.New(rand.NewSource(int64(n)))
		for m.Len() < n {
			m.Put(rec(block.Key(rng.Uint64())))
		}
		r := rec(0)
		inPlace[i] = testing.AllocsPerRun(200, func() {
			r.Key = block.Key(rng.Uint64())
			m.Put(r)
		})
		afterSnap[i] = testing.AllocsPerRun(200, func() {
			m.Snapshot()
			r.Key = block.Key(rng.Uint64())
			m.Put(r)
		})
	}
	if inPlace[0] != 0 || inPlace[1] != 0 {
		t.Errorf("Put allocs with no Snapshot between: %v at 1,000 records, %v at 8,192; want 0", inPlace[0], inPlace[1])
	}
	if afterSnap[1]-afterSnap[0] > 2 || afterSnap[1] > 10 {
		t.Errorf("Put allocs after a Snapshot: %v at 1,000 records, %v at 8,192; want within one level's copy (2) and <= 10", afterSnap[0], afterSnap[1])
	}
}

// Property: virtual blocks partition the table: counts sum to Len, ranges
// are disjoint and ordered, every block has 1..capacity records.
func TestQuickVirtualBlocksPartition(t *testing.T) {
	f := func(n uint16, capSeed uint8, seed int64) bool {
		capacity := int(capSeed)%10 + 1
		m := New(seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)%300; i++ {
			m.Put(rec(block.Key(rng.Intn(10000))))
		}
		metas := m.VirtualBlocks(capacity)
		total := 0
		for i, vm := range metas {
			if vm.Count < 1 || vm.Count > capacity || vm.Min > vm.Max {
				return false
			}
			if i > 0 && metas[i-1].Max >= vm.Min {
				return false
			}
			total += vm.Count
		}
		return total == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// cursorRecs drains a fresh cursor over [lo, hi].
func cursorRecs(s *Snapshot, lo, hi block.Key) []block.Record {
	var out []block.Record
	c := s.Cursor(lo, hi)
	for r, ok := c.Peek(); ok; r, ok = c.Peek() {
		out = append(out, r)
		c.Advance()
	}
	return out
}

func ascendRecs(m *Table, lo, hi block.Key) []block.Record {
	var out []block.Record
	m.Ascend(lo, hi, func(r block.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

func sameRecs(a, b []block.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Tombstone != b[i].Tombstone || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestCursorMatchesAscend: on random tables, a cursor yields exactly what
// Ascend visits, for random ranges and the edge ranges.
func TestCursorMatchesAscend(t *testing.T) {
	const max = ^block.Key(0)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 10, 100, 5000} {
		m := New(int64(n))
		for i := 0; i < n; i++ {
			k := block.Key(rng.Intn(4 * n))
			m.Put(block.Record{Key: k, Payload: []byte{byte(i)}, Tombstone: i%7 == 0})
		}
		if n > 0 {
			m.Put(rec(max)) // the largest key is reachable
		}
		s := m.Snapshot()
		all := ascendRecs(m, 0, max)
		ranges := [][2]block.Key{
			{0, max}, {1, 0}, {max, 0}, {5, 5}, {max, max}, {0, 0},
			{block.Key(4*n + 1), max - 1}, {block.Key(n), max},
		}
		if len(all) > 0 {
			k := all[len(all)/2].Key
			ranges = append(ranges, [2]block.Key{k, k}, [2]block.Key{k, k - 1})
		}
		for i := 0; i < 50; i++ {
			lo, hi := block.Key(rng.Intn(4*n+2)), block.Key(rng.Intn(4*n+2))
			ranges = append(ranges, [2]block.Key{lo, hi})
		}
		for _, r := range ranges {
			got, want := cursorRecs(s, r[0], r[1]), ascendRecs(m, r[0], r[1])
			if !sameRecs(got, want) {
				t.Fatalf("n=%d [%d, %d]: cursor yields %d records, Ascend %d", n, r[0], r[1], len(got), len(want))
			}
		}
	}
}

// TestCursorFrozenAcrossMutations: a cursor opened on a Snapshot keeps
// yielding the captured sequence while the Table takes Puts and single-key
// and window TakeRanges between its steps.
func TestCursorFrozenAcrossMutations(t *testing.T) {
	m := New(9)
	for k := block.Key(0); k < 400; k += 2 {
		m.Put(rec(k))
	}
	want := ascendRecs(m, 50, 350)
	c := m.Snapshot().Cursor(50, 350)
	var got []block.Record
	for i := 0; ; i++ {
		r, ok := c.Peek()
		if !ok {
			break
		}
		got = append(got, r)
		c.Advance()
		k := block.Key(i * 3)
		switch i % 3 {
		case 0:
			m.Put(block.Record{Key: k, Payload: []byte("new"), Tombstone: true})
		case 1:
			m.TakeRange(r.Key+2, r.Key+2)
		case 2:
			m.TakeRange(r.Key, r.Key+20)
		}
	}
	if !sameRecs(got, want) {
		t.Fatalf("cursor yielded %d records across mutations, the snapshot held %d", len(got), len(want))
	}
	if sameRecs(ascendRecs(m, 50, 350), want) {
		t.Fatal("the table never changed; the test checks nothing")
	}
}

// FuzzMemtableCursor decodes the input into puts, single-key and window
// TakeRanges, window RemoveUnchanged against the newest snapshot over
// 16-bit keys, snapshots mid-stream, and checks each
// snapshot's Cursor(lo, hi) against a sorted-map model frozen at the same
// point, and the table's structure at each snapshot and at the end.
// hi == 0xffff stands for the largest key.
func FuzzMemtableCursor(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 0, 9, 4, 0, 0, 2, 0, 5, 3, 0, 0, 0, 0, 7}, uint16(0), uint16(0xffff))
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 4, 0, 0, 13, 0, 1, 0, 0, 200}, uint16(2), uint16(2))
	f.Add([]byte{}, uint16(9), uint16(3))
	f.Fuzz(func(t *testing.T, ops []byte, lo, hi uint16) {
		m := New(0)
		model := map[block.Key]block.Record{}
		type frozen struct {
			snap  *Snapshot
			model []block.Record
		}
		sorted := func() []block.Record {
			out := make([]block.Record, 0, len(model))
			for _, r := range model {
				out = append(out, r)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
			return out
		}
		var snaps []frozen
		for i := 0; i+2 < len(ops); i += 3 {
			op, k := ops[i], block.Key(ops[i+1])<<8|block.Key(ops[i+2])
			switch op % 6 {
			case 0, 1:
				r := block.Record{Key: k, Payload: []byte{byte(i)}, Tombstone: op%6 == 1}
				m.Put(r)
				model[k] = r
			case 2:
				m.TakeRange(k, k)
				delete(model, k)
			case 3:
				end := k + block.Key(op/6)<<6
				m.TakeRange(k, end)
				for mk := k; mk <= end; mk++ {
					delete(model, mk)
				}
			case 5:
				// Remove what the newest snapshot still holds unchanged.
				if len(snaps) == 0 {
					continue
				}
				old := snaps[len(snaps)-1]
				end := k + block.Key(op/6)<<6
				want := 0
				for _, r := range old.model {
					if cur, ok := model[r.Key]; ok && r.Key >= k && r.Key <= end && &cur.Payload[0] == &r.Payload[0] {
						delete(model, r.Key)
						want++
					}
				}
				if got := m.RemoveUnchanged(k, end, old.snap); got != want {
					t.Fatalf("op %d: RemoveUnchanged(%d, %d) removed %d, model %d", i/3, k, end, got, want)
				}
			case 4:
				if len(snaps) < 4 {
					snaps = append(snaps, frozen{m.Snapshot(), sorted()})
					if err := m.check(); err != nil {
						t.Fatalf("op %d: %v", i/3, err)
					}
				}
			}
		}
		if err := m.check(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, frozen{m.Snapshot(), sorted()})
		lk, hk := block.Key(lo), block.Key(hi)
		if hi == 0xffff {
			hk = ^block.Key(0)
		}
		for i, s := range snaps {
			var want []block.Record
			for _, r := range s.model {
				if r.Key >= lk && r.Key <= hk {
					want = append(want, r)
				}
			}
			if got := cursorRecs(s.snap, lk, hk); !sameRecs(got, want) {
				t.Fatalf("snapshot %d, [%d, %d]: cursor %v, model %v", i, lk, hk, got, want)
			}
		}
	})
}
