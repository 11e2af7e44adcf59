package core

import "sync/atomic"

// Stats aggregates tree-level accounting. Device traffic (the paper's
// write-cost metric) lives in the device counters; per-level write series
// live on the levels; this struct carries request accounting and merge
// counts.
type Stats struct {
	Requests     int64
	Inserts      int64
	Deletes      int64
	Lookups      int64
	Scans        int64
	RequestBytes int64 // key+payload bytes of modifications processed
	Merges       int64
	FullMerges   int64
	Grows        int64 // times the tree gained a level
}

// counters is the live form of Stats. Mutation counters are bumped by the
// single writer; lookup/scan counters by any number of snapshot readers —
// hence atomics throughout, so Stats can be materialized without a lock.
type counters struct {
	requests     atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	lookups      atomic.Int64
	scans        atomic.Int64
	requestBytes atomic.Int64
	merges       atomic.Int64
	fullMerges   atomic.Int64
	grows        atomic.Int64
}

// reset zeroes every counter. The caller quiesces mutations;
// concurrent snapshot readers may lose a handful of in-flight lookup/scan
// increments at the window boundary, which is inherent to any reset.
func (c *counters) reset() {
	c.requests.Store(0)
	c.inserts.Store(0)
	c.deletes.Store(0)
	c.lookups.Store(0)
	c.scans.Store(0)
	c.requestBytes.Store(0)
	c.merges.Store(0)
	c.fullMerges.Store(0)
	c.grows.Store(0)
}

// ResetStats starts a fresh measurement window: it zeroes the request and
// merge counters, the device traffic counters, every level's cumulative
// write series, cache hit/miss counts, Bloom skip statistics, and the
// latency histograms. Structural state (levels, blocks, snapshots,
// deferred frees) is untouched. The level image is reinstalled so
// per-level numbers served from the current view reset along with the live
// ones. Merge lock.
func (t *Tree) ResetStats() {
	t.cnt.reset()
	t.dev.ResetCounters()
	for _, s := range t.slots {
		for _, l := range s.runs {
			l.ResetWriteStats()
		}
		s.retiredWrites, s.retiredCompactions = 0, 0
	}
	if t.cache != nil {
		t.cache.ResetStats()
		t.lastCacheHits, t.lastCacheMisses = 0, 0
	}
	if t.blooms != nil {
		t.blooms.ResetCounts()
	}
	t.lat.Reset()
	t.installLevels(t.levelImage())
}

// Stats materializes the tree's request/merge counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Requests:     t.cnt.requests.Load(),
		Inserts:      t.cnt.inserts.Load(),
		Deletes:      t.cnt.deletes.Load(),
		Lookups:      t.cnt.lookups.Load(),
		Scans:        t.cnt.scans.Load(),
		RequestBytes: t.cnt.requestBytes.Load(),
		Merges:       t.cnt.merges.Load(),
		FullMerges:   t.cnt.fullMerges.Load(),
		Grows:        t.cnt.grows.Load(),
	}
}

// Records returns the number of live records currently indexed (an upper
// bound: records shadowed by newer versions in upper levels and pending
// tombstones are counted as stored).
func (t *Tree) Records() int {
	n := t.mem.Len()
	for _, s := range t.slots {
		n += s.records()
	}
	return n
}
