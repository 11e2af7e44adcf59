package block

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func rec(k Key) Record { return Record{Key: k, Payload: []byte{byte(k)}} }

func recs(keys ...Key) []Record {
	rs := make([]Record, len(keys))
	for i, k := range keys {
		rs[i] = rec(k)
	}
	return rs
}

func TestNewCheckedOrdering(t *testing.T) {
	if _, err := NewChecked(recs(1, 2, 3)); err != nil {
		t.Fatalf("sorted records rejected: %v", err)
	}
	if _, err := NewChecked(recs(1, 3, 2)); err == nil {
		t.Fatal("out-of-order records accepted")
	}
	if _, err := NewChecked(recs(1, 1)); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := NewChecked(nil); err != nil {
		t.Fatalf("empty record set rejected: %v", err)
	}
}

func TestBlockAccessors(t *testing.T) {
	b := New(recs(10, 20, 30))
	if got := b.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if b.MinKey() != 10 || b.MaxKey() != 30 {
		t.Errorf("Min/Max = %d/%d, want 10/30", b.MinKey(), b.MaxKey())
	}
	if got := b.EmptySlots(5); got != 2 {
		t.Errorf("EmptySlots(5) = %d, want 2", got)
	}
	if got := b.Bytes(); got != 3*9 {
		t.Errorf("Bytes = %d, want 27", got)
	}
}

func TestBlockFind(t *testing.T) {
	b := New(recs(2, 4, 6, 8))
	for _, k := range []Key{2, 4, 6, 8} {
		r, ok := b.Find(k)
		if !ok || r.Key != k {
			t.Errorf("Find(%d) = %v,%v", k, r, ok)
		}
	}
	for _, k := range []Key{1, 3, 9} {
		if _, ok := b.Find(k); ok {
			t.Errorf("Find(%d) found a missing key", k)
		}
	}
}

func TestBlockClone(t *testing.T) {
	b := New(recs(1, 2))
	c := b.Clone()
	c.records[0].Key = 99
	if b.records[0].Key != 1 {
		t.Error("Clone shares record storage with original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := New([]Record{
		{Key: 1, Payload: []byte("hello")},
		{Key: 2, Tombstone: true},
		{Key: 300, Payload: bytes.Repeat([]byte{0xAB}, 100)},
	})
	buf := make([]byte, 4096)
	if err := b.Encode(buf, 4096); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != b.Len() {
		t.Fatalf("round trip length %d, want %d", got.Len(), b.Len())
	}
	for i, r := range got.Records() {
		want := b.Records()[i]
		if r.Key != want.Key || r.Tombstone != want.Tombstone || !bytes.Equal(r.Payload, want.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

func TestEncodeTooLarge(t *testing.T) {
	b := New([]Record{{Key: 1, Payload: bytes.Repeat([]byte{1}, 5000)}})
	buf := make([]byte, 4096)
	if err := b.Encode(buf, 4096); err == nil {
		t.Fatal("oversized block encoded without error")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"short":     {0x53},
		"bad magic": {0, 0, 0, 0},
		"truncated": func() []byte {
			b := New(recs(1, 2, 3))
			buf := make([]byte, 4096)
			if err := b.Encode(buf, 4096); err != nil {
				t.Fatal(err)
			}
			return buf[:10]
		}(),
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: Decode succeeded on corrupt input", name)
		}
	}
}

func TestCapacityFor(t *testing.T) {
	// Paper defaults: 4KB blocks, 100-byte payloads.
	if b := CapacityFor(4096, 100); b != 36 {
		t.Errorf("CapacityFor(4096,100) = %d, want 36", b)
	}
	// The derived capacity is the largest that Encode accepts: a block of B
	// records at the hinted payload fits, B+1 does not.
	for _, payload := range []int{1, 7, 100, 500, 4000} {
		b := CapacityFor(4096, payload)
		full := func(n int) *Block {
			rs := make([]Record, n)
			for i := range rs {
				rs[i] = Record{Key: Key(i), Payload: make([]byte, payload)}
			}
			return New(rs)
		}
		buf := make([]byte, 4096)
		if err := full(b).Encode(buf, 4096); err != nil {
			t.Errorf("payload %d: %d records do not encode: %v", payload, b, err)
		}
		if err := full(b+1).Encode(buf, 4096); err == nil {
			t.Errorf("payload %d: CapacityFor = %d but %d records still fit", payload, b, b+1)
		}
	}
	// Extreme: 4000-byte payloads -> one record per block.
	if b := CapacityFor(4096, 4000); b != 1 {
		t.Errorf("CapacityFor(4096,4000) = %d, want 1", b)
	}
	// Degenerate: payload larger than block still yields 1.
	if b := CapacityFor(4096, 10000); b != 1 {
		t.Errorf("CapacityFor(4096,10000) = %d, want 1", b)
	}
}

func TestBuilderPacksToCapacity(t *testing.T) {
	bb := NewBuilder(3)
	for k := Key(1); k <= 7; k++ {
		bb.Add(rec(k))
	}
	blocks := bb.Finish()
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	sizes := []int{blocks[0].Len(), blocks[1].Len(), blocks[2].Len()}
	if sizes[0] != 3 || sizes[1] != 3 || sizes[2] != 1 {
		t.Errorf("block sizes = %v, want [3 3 1]", sizes)
	}
}

func TestBuilderFlushPartialAndAppendExisting(t *testing.T) {
	bb := NewBuilder(4)
	bb.Add(rec(1))
	bb.Add(rec(2))
	bb.FlushPartial()
	pre := New(recs(3, 4, 5))
	bb.AppendExisting(pre)
	bb.Add(rec(6))
	blocks := bb.Finish()
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	if blocks[1] != pre {
		t.Error("AppendExisting did not keep block identity")
	}
	if blocks[0].Len() != 2 || blocks[2].Len() != 1 {
		t.Errorf("sizes = %d,%d, want 2,1", blocks[0].Len(), blocks[2].Len())
	}
}

func TestBuilderAppendExistingPanicsOnPendingBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic with non-empty buffer")
		}
	}()
	bb := NewBuilder(4)
	bb.Add(rec(1))
	bb.AppendExisting(New(recs(2)))
}

// Property: encode/decode round-trips arbitrary ordered record sets.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%50 + 1
		rs := make([]Record, 0, count)
		k := Key(0)
		for i := 0; i < count; i++ {
			k += Key(rng.Intn(1000) + 1)
			r := Record{Key: k, Tombstone: rng.Intn(4) == 0}
			if !r.Tombstone {
				r.Payload = make([]byte, rng.Intn(20))
				rng.Read(r.Payload)
			}
			rs = append(rs, r)
		}
		b := New(rs)
		buf := make([]byte, 8192)
		if err := b.Encode(buf, 8192); err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil || got.Len() != b.Len() {
			return false
		}
		for i := range rs {
			g := got.Records()[i]
			if g.Key != rs[i].Key || g.Tombstone != rs[i].Tombstone || !bytes.Equal(g.Payload, rs[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the builder never produces an oversized or empty block, and
// preserves every record in order.
func TestQuickBuilderInvariants(t *testing.T) {
	f := func(n uint16, capSeed uint8) bool {
		capacity := int(capSeed)%16 + 1
		count := int(n) % 500
		bb := NewBuilder(capacity)
		for i := 0; i < count; i++ {
			bb.Add(rec(Key(i)))
		}
		blocks := bb.Finish()
		next := Key(0)
		for _, b := range blocks {
			if b.Len() == 0 || b.Len() > capacity {
				return false
			}
			for _, r := range b.Records() {
				if r.Key != next {
					return false
				}
				next++
			}
		}
		return int(next) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
