package block

import (
	"bytes"
	"fmt"
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

// TestNewCheckedOrdering: New trusts its caller's order, and the block
// checker every device read runs (Decode) is what refuses a block whose
// keys do not strictly increase.
func TestNewCheckedOrdering(t *testing.T) {
	decode := func(rs []Record) error {
		buf := make([]byte, 64)
		if err := New(rs).Encode(buf, 64); err != nil {
			t.Fatal(err)
		}
		_, err := Decode(buf)
		return err
	}
	if err := decode(recs(1, 2, 3)); err != nil {
		t.Fatalf("sorted records rejected: %v", err)
	}
	if err := decode(recs(1, 3, 2)); err == nil {
		t.Fatal("out-of-order records accepted")
	}
	if err := decode(recs(1, 1)); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if err := decode(nil); err != nil {
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
	c.buf[headerSize] = 99
	if b.MinKey() != 1 {
		t.Error("Clone shares its bytes with the original")
	}
}

// records collects b's records through its cursor.
func records(b *Block) []Record {
	var rs []Record
	c := b.Cursor()
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		rs = append(rs, r)
	}
	return rs
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
	for i, r := range records(got) {
		want := records(b)[i]
		if r.Key != want.Key || r.Tombstone != want.Tombstone || !bytes.Equal(r.Payload, want.Payload) {
			t.Errorf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

// fullBlock encodes 32 records with 100-byte payloads, a block of the
// shape the benchmark's workloads write, into a 4 KiB buffer.
func fullBlock(tb testing.TB) []byte {
	rs := make([]Record, 32)
	for i := range rs {
		rs[i] = Record{Key: Key(i * 1000), Payload: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	buf := make([]byte, 4096)
	if err := New(rs).Encode(buf, 4096); err != nil {
		tb.Fatal(err)
	}
	return buf
}

// TestEncodedLen: the bytes a decoded block keeps of its padded device
// block are what EncodedSize computed, a buffer truncated inside them is
// refused, and the occupied prefix alone decodes to the same block.
func TestEncodedLen(t *testing.T) {
	buf := fullBlock(t)
	b, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	n := len(b.buf)
	if n != b.EncodedSize() {
		t.Fatalf("decoded block keeps %d bytes, EncodedSize = %d", n, b.EncodedSize())
	}
	if _, err := Decode(buf[:n-1]); err == nil {
		t.Fatal("a block truncated by one byte decoded")
	}
	c, err := Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != b.Len() || c.MaxKey() != b.MaxKey() {
		t.Fatalf("the occupied prefix decodes to %d records up to key %d, want %d up to %d", c.Len(), c.MaxKey(), b.Len(), b.MaxKey())
	}
}

// TestDecodeSharesPayloads: Decode makes the block src itself, without a
// copy — each payload points into src, clipped to its length so an append
// cannot run into the next record — and allocates only the Block header.
func TestDecodeSharesPayloads(t *testing.T) {
	buf := fullBlock(t)
	b, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records(b) {
		if cap(r.Payload) != len(r.Payload) {
			t.Fatalf("record %d: payload cap %d beyond its length %d", i, cap(r.Payload), len(r.Payload))
		}
	}
	first := records(b)[0].Payload
	buf[4+8+1+2] ^= 0xFF // the first payload byte
	if first[0] != buf[4+8+1+2] {
		t.Fatal("payload is a copy, not a view of src")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Decode allocates %.0f times per block, want at most 1", n)
	}
}

// TestParseAndSearchInPlace: validating a block, searching it and walking
// it read the encoded bytes where they lie and allocate nothing, and Load
// into a reused block allocates nothing once the block has held one as
// large.
func TestParseAndSearchInPlace(t *testing.T) {
	buf := fullBlock(t)
	var b, c Block
	if n := testing.AllocsPerRun(100, func() {
		if err := b.Parse(buf); err != nil {
			t.Fatal(err)
		}
		if r, ok := b.Find(17000); !ok || r.Key != 17000 || r.Payload[0] != 17 {
			t.Fatalf("Find(17000) = %v, %v", r, ok)
		}
		if _, ok := b.Find(17001); ok {
			t.Fatal("Find found an absent key")
		}
		if err := c.Load(buf); err != nil {
			t.Fatal(err)
		}
		if c.MaxKey() != 31000 {
			t.Fatalf("MaxKey = %d", c.MaxKey())
		}
	}); n != 0 {
		t.Fatalf("Parse, Find, Load and MaxKey allocate %.1f times, want 0", n)
	}
	if &b.buf[0] != &buf[0] {
		t.Fatal("Parse copied the bytes")
	}
	if &c.buf[0] == &buf[0] {
		t.Fatal("Load aliased the bytes")
	}
}

// TestParseRejectsDisorder: a block whose keys do not strictly increase
// is refused where it lies, as a truncated one is.
func TestParseRejectsDisorder(t *testing.T) {
	buf := make([]byte, 64)
	if err := New(recs(1, 2)).Encode(buf, 64); err != nil {
		t.Fatal(err)
	}
	buf[headerSize+recordHeader+1] = 1 // second key := first key
	var b Block
	if err := b.Parse(buf); err == nil {
		t.Fatal("duplicate keys parsed")
	}
	if b.Len() != 0 {
		t.Fatalf("a refused block holds %d records", b.Len())
	}
}

// TestAppendMatchesEncode: a block built record by record holds the bytes
// Encode writes for the same records, and Reset keeps its memory.
func TestAppendMatchesEncode(t *testing.T) {
	rs := []Record{{Key: 1, Payload: []byte("a")}, {Key: 2, Tombstone: true}, {Key: 9, Payload: []byte("xyz")}}
	var b Block
	for _, r := range rs {
		b.Append(r)
	}
	want := make([]byte, 64)
	if err := New(rs).Encode(want, 64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.buf, want[:New(rs).EncodedSize()]) {
		t.Fatalf("appended bytes %x, encoded %x", b.buf, want)
	}
	p := &b.buf[0]
	b.Reset()
	b.Append(rs[0])
	if b.Len() != 1 || &b.buf[0] != p {
		t.Fatal("Reset did not keep the block's memory")
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := fullBlock(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
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
			g := records(got)[i]
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
			for _, r := range records(b) {
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

// TestCopyRange: a clipped copy holds exactly the records in [lo, hi],
// in order and byte for byte, and an empty range gives an empty block.
func TestCopyRange(t *testing.T) {
	src := New(recs(10, 20, 30, 40, 50))
	var b Block
	for _, tc := range []struct {
		lo, hi Key
		want   []Key
	}{
		{0, 100, []Key{10, 20, 30, 40, 50}},
		{20, 40, []Key{20, 30, 40}},
		{21, 39, []Key{30}},
		{11, 19, nil},
		{51, 60, nil},
		{0, 10, []Key{10}},
		{50, ^Key(0), []Key{50}},
	} {
		b.CopyRange(src, tc.lo, tc.hi)
		var got []Key
		for _, r := range records(&b) {
			if want, _ := src.Find(r.Key); !bytes.Equal(r.Payload, want.Payload) {
				t.Errorf("[%d, %d]: key %d payload %x, want %x", tc.lo, tc.hi, r.Key, r.Payload, want.Payload)
			}
			got = append(got, r.Key)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || b.Len() != len(tc.want) {
			t.Errorf("CopyRange(%d, %d) = %v (Len %d), want %v", tc.lo, tc.hi, got, b.Len(), tc.want)
		}
		if _, err := check(b.buf); err != nil {
			t.Errorf("CopyRange(%d, %d) is not a valid block: %v", tc.lo, tc.hi, err)
		}
	}
}
