// Package cache provides an LRU buffer cache layered over a storage
// device.
//
// The paper's setup reserves a buffer cache beside the memory-resident L0
// (16MB by default, 100MB for the large experiments). Reads served from the
// cache cost nothing; writes are write-through, so the device's write
// counter — the paper's cost metric — is unaffected by caching.
//
// The cache is a fixed pool of frames. Each shard owns up to its capacity
// of frames, each holding one block's encoded bytes in memory the frame
// keeps for its whole life, and an intrusive LRU list threads them; an
// admitted block is copied into the least recently used frame. Nothing
// outside the shard lock ever sees a frame: a point read (Get) searches
// the frame in place and copies out only the record's value, and a block
// read (Load, ReadInto, Peek) copies the frame into the caller's block —
// all before the lock is released, so a frame can be refilled the moment
// it is unlocked. A miss reads the device into a pooled or caller-owned
// block and copies it into a frame afterwards (a point read's pooled
// block trades its memory with the frame instead).
//
// Admission: a Get or Load miss admits the block, and Write admits what it
// writes (write-through), as an OS page cache would. ReadInto — the
// Device method merges read their inputs through — does not: a merge
// frees its input blocks, so caching them would only evict blocks readers
// still want.
//
// The cache is safe for concurrent use. Large caches are sharded by block
// ID so parallel lookups from the snapshot-isolated read path do not
// serialize on a single mutex; small caches (below shardThreshold blocks)
// keep a single shard, preserving exact global LRU order where eviction
// behaviour is observable.
package cache

import (
	"bytes"
	"sync"

	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

const (
	// shardCount is the number of independently locked LRU segments used
	// once a cache is large enough for per-segment eviction to be a good
	// approximation of global LRU.
	shardCount = 8
	// shardThreshold is the minimum capacity (in blocks) at which sharding
	// engages. Smaller caches use one shard and behave as a strict LRU.
	shardThreshold = 512
)

// Cache is an LRU block cache implementing storage.Device by decorating an
// underlying device. A capacity of zero disables caching (all calls pass
// through).
type Cache struct {
	dev      storage.Device
	capacity int
	shards   []*shard
	scratch  sync.Pool // *block.Block: a point read's miss buffer
}

// shard is one LRU segment: frames[0] is the list's sentinel (next is the
// most recently used frame, prev the least), frames[1:] hold blocks.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   []frame
	index    map[storage.BlockID]int32
	free     []int32 // frames whose blocks were freed, reused first
	hits     int64
	misses   int64
}

type frame struct {
	id         storage.BlockID
	blk        block.Block
	prev, next int32
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits   int64
	Misses int64
}

// New returns an LRU cache of the given capacity (in blocks) over dev.
func New(dev storage.Device, capacity int) *Cache {
	n := 1
	if capacity >= shardThreshold {
		n = shardCount
	}
	c := &Cache{dev: dev, capacity: capacity, shards: make([]*shard, n)}
	c.scratch.New = func() any { return new(block.Block) }
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i] = newShard(per)
	}
	return c
}

func newShard(capacity int) *shard {
	s := &shard{capacity: capacity, index: make(map[storage.BlockID]int32)}
	if capacity > 0 {
		s.frames = make([]frame, 1, capacity+1)
	}
	return s
}

func (c *Cache) shardFor(id storage.BlockID) *shard {
	return c.shards[uint64(id)%uint64(len(c.shards))]
}

// Alloc passes through to the underlying device.
func (c *Cache) Alloc() storage.BlockID { return c.dev.Alloc() }

// Write stores the block write-through and copies it into a frame (newly
// written blocks are about to be read back only rarely — merges stream —
// but keeping them warm matches an OS page cache's behaviour and the
// paper's setup, which leaves on-disk caching on). Neither the device nor
// the cache keeps b.
func (c *Cache) Write(id storage.BlockID, b *block.Block) error {
	if err := c.dev.Write(id, b); err != nil {
		return err
	}
	c.admit(id, b)
	return nil
}

// Get looks k up in the block stored under id: the engine's point read. On
// a hit it searches the cached frame in place and copies out the record's
// value under the shard lock; on a miss it reads the device into a pooled
// block, searches that, and admits a copy. The returned record's payload
// is the caller's own. hit reports whether the cache served the block, so
// a traced read is labelled by what happened, not by a guess made before.
func (c *Cache) Get(id storage.BlockID, k block.Key) (r block.Record, found, hit bool, err error) {
	if c.capacity > 0 {
		s := c.shardFor(id)
		s.mu.Lock()
		if i, ok := s.index[id]; ok {
			s.touch(i)
			s.hits++
			r, found = s.frames[i].blk.Find(k)
			r.Payload = bytes.Clone(r.Payload)
			s.mu.Unlock()
			return r, found, true, nil
		}
		s.misses++
		s.mu.Unlock()
	}
	b := c.scratch.Get().(*block.Block)
	defer c.scratch.Put(b)
	if err := c.dev.ReadInto(id, b); err != nil {
		return block.Record{}, false, false, err
	}
	r, found = b.Find(k)
	r.Payload = bytes.Clone(r.Payload)
	if c.capacity > 0 {
		s := c.shardFor(id)
		s.mu.Lock()
		s.adopt(id, b)
		s.mu.Unlock()
	}
	return r, found, false, nil
}

// Load fills dst with the block stored under id — on a hit only its
// records with keys in [lo, hi], copied out of the frame; on a miss the
// whole block, read from the device and admitted — and reports whether the
// cache served it. Iterators stream through it.
func (c *Cache) Load(id storage.BlockID, lo, hi block.Key, dst *block.Block) (hit bool, err error) {
	return c.read(id, dst, true, lo, hi)
}

// ReadInto copies the block stored under id into dst, from its frame on a
// hit and from the device on a miss, which does not admit it: the levels
// read merge inputs through it, and a merge frees its inputs.
func (c *Cache) ReadInto(id storage.BlockID, dst *block.Block) error {
	_, err := c.read(id, dst, false, 0, ^block.Key(0))
	return err
}

// Read returns a private copy of the block stored under id, as Load
// serves it (a miss admits the block).
func (c *Cache) Read(id storage.BlockID) (*block.Block, error) {
	b := new(block.Block)
	if _, err := c.Load(id, 0, ^block.Key(0), b); err != nil {
		return nil, err
	}
	return b, nil
}

// read serves dst from id's frame (the records in [lo, hi]) or from the
// device (the whole block), admitting a miss when admit is set.
func (c *Cache) read(id storage.BlockID, dst *block.Block, admit bool, lo, hi block.Key) (hit bool, err error) {
	if c.capacity > 0 {
		s := c.shardFor(id)
		s.mu.Lock()
		if i, ok := s.index[id]; ok {
			s.touch(i)
			s.hits++
			if lo == 0 && hi == ^block.Key(0) {
				dst.CopyFrom(&s.frames[i].blk)
			} else {
				dst.CopyRange(&s.frames[i].blk, lo, hi)
			}
			s.mu.Unlock()
			return true, nil
		}
		s.misses++
		s.mu.Unlock()
	}
	if err := c.dev.ReadInto(id, dst); err != nil {
		return false, err
	}
	if admit {
		c.admit(id, dst)
	}
	return false, nil
}

// admit copies b into a frame as id's block.
func (c *Cache) admit(id storage.BlockID, b *block.Block) {
	if c.capacity > 0 {
		s := c.shardFor(id)
		s.mu.Lock()
		s.insert(id, b)
		s.mu.Unlock()
	}
}

// Peek copies the cached block into dst when present and otherwise peeks
// through, never counting device reads and never rearranging the LRU
// list.
func (c *Cache) Peek(id storage.BlockID, dst *block.Block) error {
	if c.capacity > 0 {
		s := c.shardFor(id)
		s.mu.Lock()
		if i, ok := s.index[id]; ok {
			dst.CopyFrom(&s.frames[i].blk)
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
	}
	return c.dev.Peek(id, dst)
}

// Free evicts the block from the cache and frees it on the device.
func (c *Cache) Free(id storage.BlockID) error {
	if c.capacity > 0 {
		s := c.shardFor(id)
		s.mu.Lock()
		if i, ok := s.index[id]; ok {
			s.unlink(i)
			delete(s.index, id)
			s.free = append(s.free, i)
		}
		s.mu.Unlock()
	}
	return c.dev.Free(id)
}

// Counters returns the underlying device's counters.
func (c *Cache) Counters() storage.Counters { return c.dev.Counters() }

// ResetCounters resets the underlying device's traffic counters.
func (c *Cache) ResetCounters() { c.dev.ResetCounters() }

// Close drops the cache and closes the underlying device.
func (c *Cache) Close() error {
	for _, s := range c.shards {
		s.mu.Lock()
		s.frames, s.free = s.frames[:min(len(s.frames), 1)], nil
		if len(s.frames) > 0 {
			s.frames[0] = frame{}
		}
		s.index = make(map[storage.BlockID]int32)
		s.mu.Unlock()
	}
	return c.dev.Close()
}

// Stats returns hit/miss counts.
func (c *Cache) Stats() Stats {
	var st Stats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		s.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the hit/miss counts, starting a fresh measurement
// window. Cached contents are unaffected.
func (c *Cache) ResetStats() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.hits, s.misses = 0, 0
		s.mu.Unlock()
	}
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// insert copies b into id's frame and makes it the most recent. Callers
// hold s.mu.
func (s *shard) insert(id storage.BlockID, b *block.Block) {
	i := s.frameFor(id)
	s.frames[i].blk.CopyFrom(b)
	s.pushFront(i)
}

// adopt is insert without the copy: b's memory becomes id's frame and b
// takes the frame's old memory, for a caller done with b's contents (a
// point read's miss buffer, once the value is copied out). Callers hold
// s.mu.
func (s *shard) adopt(id storage.BlockID, b *block.Block) {
	i := s.frameFor(id)
	s.frames[i].blk, *b = *b, s.frames[i].blk
	s.pushFront(i)
}

// frameFor returns id's frame, unlinked: the one holding it, or the
// shard's least recently used one (see victim) when id has none.
func (s *shard) frameFor(id storage.BlockID) int32 {
	if i, ok := s.index[id]; ok {
		s.unlink(i)
		return i
	}
	i := s.victim()
	s.frames[i].id = id
	s.index[id] = i
	return i
}

// victim returns an unlinked frame for a new block: a freed one, a fresh
// one while the arena is below capacity, or else the least recently used,
// whose block leaves the cache.
func (s *shard) victim() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	if len(s.frames) <= s.capacity {
		s.frames = append(s.frames, frame{})
		return int32(len(s.frames) - 1)
	}
	i := s.frames[0].prev
	s.unlink(i)
	delete(s.index, s.frames[i].id)
	return i
}

// touch makes frame i the most recently used.
func (s *shard) touch(i int32) {
	s.unlink(i)
	s.pushFront(i)
}

func (s *shard) unlink(i int32) {
	f := &s.frames[i]
	s.frames[f.prev].next = f.next
	s.frames[f.next].prev = f.prev
}

func (s *shard) pushFront(i int32) {
	head := &s.frames[0]
	s.frames[i].prev, s.frames[i].next = 0, head.next
	s.frames[head.next].prev = i
	head.next = i
}
