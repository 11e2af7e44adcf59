package core

import (
	"sync/atomic"

	"lsmssd/internal/stripe"
)

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

// counters is the live form of Stats: atomics throughout, so Stats can be
// materialized without a lock. lookups is bumped by every point read, so
// it is striped: concurrent Gets write cells of their own.
type counters struct {
	requests     atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	lookups      stripe.Counter
	scans        atomic.Int64
	requestBytes atomic.Int64
	merges       atomic.Int64
	fullMerges   atomic.Int64
	grows        atomic.Int64
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
