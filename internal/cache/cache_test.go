package cache

import (
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

func testBlock(k block.Key) *block.Block {
	return block.New([]block.Record{{Key: k, Payload: []byte("v")}})
}

func fill(t *testing.T, d storage.Device, n int) []storage.BlockID {
	t.Helper()
	ids := make([]storage.BlockID, n)
	for i := range ids {
		ids[i] = d.Alloc()
		if err := d.Write(ids[i], testBlock(block.Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func TestCacheHitAvoidsDeviceRead(t *testing.T) {
	dev := storage.NewMemDevice()
	c := New(dev, 8)
	ids := fill(t, c, 4)
	dev.ResetCounters()
	for i := 0; i < 10; i++ {
		if _, err := c.Read(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Counters().Reads; got != 0 {
		t.Errorf("device reads = %d, want 0 (all hits: block was cached at write)", got)
	}
	st := c.Stats()
	if st.Hits != 10 {
		t.Errorf("hits = %d, want 10", st.Hits)
	}
}

func TestCacheMissReadsThrough(t *testing.T) {
	dev := storage.NewMemDevice()
	ids := fill(t, dev, 3) // written directly to device, cache cold
	c := New(dev, 8)
	dev.ResetCounters()
	if _, err := c.Read(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := dev.Counters().Reads; got != 1 {
		t.Errorf("device reads = %d, want 1 (miss then hit)", got)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	dev := storage.NewMemDevice()
	c := New(dev, 2)
	ids := fill(t, c, 3) // writing 3 into capacity-2 cache evicts ids[0]
	dev.ResetCounters()
	if _, err := c.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := dev.Counters().Reads; got != 1 {
		t.Errorf("device reads = %d, want 1 (ids[0] was evicted)", got)
	}
	if c.Len() != 2 {
		t.Errorf("cache len = %d, want 2", c.Len())
	}
}

func TestCacheWriteThrough(t *testing.T) {
	dev := storage.NewMemDevice()
	c := New(dev, 4)
	fill(t, c, 4)
	if got := dev.Counters().Writes; got != 4 {
		t.Errorf("device writes = %d, want 4: cache must not absorb writes", got)
	}
}

func TestCacheFreeEvicts(t *testing.T) {
	dev := storage.NewMemDevice()
	c := New(dev, 4)
	ids := fill(t, c, 2)
	if err := c.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("cache len after free = %d, want 1", c.Len())
	}
	if _, err := c.Read(ids[0]); err == nil {
		t.Error("read of freed block succeeded")
	}
}

func TestCachePeekDoesNotCount(t *testing.T) {
	dev := storage.NewMemDevice()
	ids := fill(t, dev, 1)
	c := New(dev, 4)
	dev.ResetCounters()
	if err := c.Peek(ids[0], new(block.Block)); err != nil {
		t.Fatal(err)
	}
	if got := dev.Counters().Reads; got != 0 {
		t.Errorf("Peek counted %d device reads, want 0", got)
	}
}

func TestZeroCapacityPassesThrough(t *testing.T) {
	dev := storage.NewMemDevice()
	c := New(dev, 0)
	ids := fill(t, c, 2)
	dev.ResetCounters()
	c.Read(ids[0])
	c.Read(ids[0])
	if got := dev.Counters().Reads; got != 2 {
		t.Errorf("device reads = %d, want 2 (caching disabled)", got)
	}
}

// Property: under any access pattern the cache never exceeds its capacity
// and always returns the same content as the raw device.
func TestQuickCacheTransparency(t *testing.T) {
	f := func(accesses []uint8, capSeed uint8) bool {
		capacity := int(capSeed) % 5
		dev := storage.NewMemDevice()
		c := New(dev, capacity)
		const n = 10
		ids := make([]storage.BlockID, n)
		for i := range ids {
			ids[i] = c.Alloc()
			if err := c.Write(ids[i], testBlock(block.Key(100+i))); err != nil {
				return false
			}
		}
		for _, a := range accesses {
			i := int(a) % n
			b, err := c.Read(ids[i])
			if err != nil || b.MinKey() != block.Key(100+i) {
				return false
			}
			if capacity > 0 && c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGetReportsHitAndCopiesValue: a point read reports whether the cache
// served it, copies the value out (a later refill of the frame does not
// reach it), and admits a missed block, so the next Get of it hits.
func TestGetReportsHitAndCopiesValue(t *testing.T) {
	dev := storage.NewMemDevice()
	ids := fill(t, dev, 3) // cold: written below the cache
	c := New(dev, 1)
	r, found, hit, err := c.Get(ids[0], 0)
	if err != nil || !found || hit || string(r.Payload) != "v" {
		t.Fatalf("cold Get = %v %v hit=%v %v, want a miss that finds the key", r, found, hit, err)
	}
	if _, found, hit, _ = c.Get(ids[0], 0); !found || !hit {
		t.Fatalf("second Get: found=%v hit=%v, want a hit", found, hit)
	}
	kept := r.Payload
	if _, _, hit, _ = c.Get(ids[1], 1); hit {
		t.Fatal("Get of another block hit a one-frame cache")
	}
	if string(kept) != "v" {
		t.Fatalf("a value Get returned changed to %q when its frame was refilled", kept)
	}
	if _, found, _, _ = c.Get(ids[1], 7); found {
		t.Fatal("Get found an absent key")
	}
}

// TestReadIntoDoesNotAdmit: the Device read merges use copies a cached
// block out but leaves a missed one uncached, while Load admits it.
func TestReadIntoDoesNotAdmit(t *testing.T) {
	dev := storage.NewMemDevice()
	ids := fill(t, dev, 2)
	c := New(dev, 4)
	var b block.Block
	if err := c.ReadInto(ids[0], &b); err != nil || b.MinKey() != 0 {
		t.Fatalf("ReadInto = %v, key %d", err, b.MinKey())
	}
	if c.Len() != 0 {
		t.Fatalf("ReadInto admitted a block: %d cached", c.Len())
	}
	if hit, err := c.Load(ids[1], 0, ^block.Key(0), &b); err != nil || hit || b.MinKey() != 1 {
		t.Fatalf("Load = hit %v, %v, key %d", hit, err, b.MinKey())
	}
	if c.Len() != 1 {
		t.Fatalf("Load did not admit its miss: %d cached", c.Len())
	}
	dev.ResetCounters()
	if err := c.ReadInto(ids[1], &b); err != nil || dev.Counters().Reads != 0 {
		t.Fatalf("ReadInto of a cached block: %v, %d device reads", err, dev.Counters().Reads)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses", st)
	}
}

// TestFramesAreReused: the arena never holds more frames than its
// capacity, a freed block's frame takes the next admission, and a warm
// cache's hits and evictions allocate nothing but the values Get copies.
func TestFramesAreReused(t *testing.T) {
	dev := storage.NewMemDevice()
	ids := fill(t, dev, 8)
	c := New(dev, 2)
	var b block.Block
	for _, id := range ids {
		if _, err := c.Load(id, 0, ^block.Key(0), &b); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.shards[0]; len(s.frames) != 3 || c.Len() != 2 {
		t.Fatalf("%d frames (sentinel included) for %d blocks, want 3 for 2", len(s.frames), c.Len())
	}
	if err := c.Free(ids[7]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ids[0], 0, ^block.Key(0), &b); err != nil {
		t.Fatal(err)
	}
	if s := c.shards[0]; len(s.frames) != 3 || len(s.free) != 0 || c.Len() != 2 {
		t.Fatalf("freed frame not reused: %d frames, %d free, %d cached", len(s.frames), len(s.free), c.Len())
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Load(ids[i%len(ids[:7])], 0, ^block.Key(0), &b); err != nil { // misses and evictions
			t.Fatal(err)
		}
		if _, err := c.Load(ids[0], 0, ^block.Key(0), &b); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("warm Loads allocate %.1f times, want 0", n)
	}
}

// TestLoadClipsHitsToRange: a hit copies out only the records a scan's
// range needs; a miss reads the whole block (and admits all of it).
func TestLoadClipsHitsToRange(t *testing.T) {
	dev := storage.NewMemDevice()
	c := New(dev, 4)
	id := dev.Alloc()
	full := block.New([]block.Record{{Key: 1}, {Key: 2}, {Key: 3}, {Key: 4}})
	if err := dev.Write(id, full); err != nil {
		t.Fatal(err)
	}
	var b block.Block
	if hit, err := c.Load(id, 2, 3, &b); err != nil || hit || b.Len() != 4 {
		t.Fatalf("miss: hit %v, %v, %d records; want the whole block", hit, err, b.Len())
	}
	if hit, err := c.Load(id, 2, 3, &b); err != nil || !hit || b.Len() != 2 || b.MinKey() != 2 || b.MaxKey() != 3 {
		t.Fatalf("hit: hit %v, %v, %d records [%d, %d]; want keys 2 and 3", hit, err, b.Len(), b.MinKey(), b.MaxKey())
	}
}
