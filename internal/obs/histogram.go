package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i holds
// durations whose nanosecond count has bit length i — i.e. bucket 0 is
// exactly 0ns, and bucket i (i ≥ 1) covers [2^(i-1), 2^i) ns. 48 buckets
// reach 2^47 ns ≈ 39 hours, far beyond any engine operation; longer
// observations clamp into the top bucket.
const NumBuckets = 48

// Histogram is a fixed log-bucket latency histogram: lock-free, constant
// memory, mergeable. Observe is a few atomic adds, cheap enough for every
// Get on the snapshot-read path. Counters may be read while writers
// observe; snapshots are therefore only eventually consistent (Count, Sum
// and the buckets are loaded independently), which is the usual histogram
// trade and fine for monitoring.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns bucket i's exclusive upper bound (2^i ns). The top
// bucket is unbounded; it returns the nominal 2^(NumBuckets-1) ns.
func BucketUpper(i int) time.Duration { return time.Duration(int64(1) << uint(i)) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Snapshot materializes the current counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, the mergeable
// plain-value form used for rendering and aggregation.
type HistSnapshot struct {
	Count   int64
	Sum     int64 // nanoseconds
	Buckets [NumBuckets]int64
}

// Merge adds o into s (histograms over the same fixed buckets are closed
// under addition — aggregate per-shard or per-DB series freely).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Sub returns s − o elementwise: the histogram of observations made
// between o's snapshot time and s's, when o is an earlier snapshot of the
// same histogram (whose counts never decrease). The flight recorder uses it
// to turn cumulative histograms into per-tick deltas.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count - o.Count, Sum: s.Sum - o.Sum}
	for i := range s.Buckets {
		out.Buckets[i] = s.Buckets[i] - o.Buckets[i]
	}
	return out
}

// Mean returns the average observed duration, or 0 when empty.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// exclusive upper edge of the bucket containing the rank-⌈q·count⌉
// observation. Log buckets bound the error by a factor of 2.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Max returns the exclusive upper edge of the highest non-empty bucket
// (an upper bound on the longest observation), or 0 when empty.
func (s HistSnapshot) Max() time.Duration {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			return BucketUpper(i)
		}
	}
	return 0
}

// Op enumerates the engine operations with a latency series.
type Op int

// Latency-tracked operations.
const (
	OpGet Op = iota
	OpPut
	OpDelete
	OpScan
	OpMerge     // one merge step, timed inside the engine
	OpStall     // time a write spent in backpressure (sleep or stall gate)
	OpWALAppend // a write-ahead log frame append, including any policy fsync
	OpApply     // one shard's slice of a WriteBatch
	NumOps
)

// String returns the op's metric label.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpMerge:
		return "merge"
	case OpStall:
		return "stall"
	case OpWALAppend:
		return "wal_append"
	case OpApply:
		return "apply"
	}
	return "unknown"
}

// LatencySet is the engine's per-operation histogram bundle. Recording is
// gated: until Enable(true), Start returns the zero time and Done is a
// no-op, so an unobserved engine pays one atomic load per operation and
// never calls time.Now. A nil *LatencySet is valid and disabled.
type LatencySet struct {
	on    atomic.Bool
	hists [NumOps]Histogram
}

// Enable switches recording on or off.
func (s *LatencySet) Enable(on bool) { s.on.Store(on) }

// Enabled reports whether observations are being recorded.
func (s *LatencySet) Enabled() bool { return s != nil && s.on.Load() }

// Start begins timing an operation: the current time when enabled, the
// zero time (making the paired Done a no-op) otherwise.
func (s *LatencySet) Start() time.Time {
	if !s.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// Done records the elapsed time for op if Start returned a real time.
func (s *LatencySet) Done(op Op, start time.Time) {
	if start.IsZero() {
		return
	}
	s.hists[op].Observe(time.Since(start))
}

// Observe records a duration for op directly (used by the engine for
// merge steps it times itself).
func (s *LatencySet) Observe(op Op, d time.Duration) {
	if !s.Enabled() {
		return
	}
	s.hists[op].Observe(d)
}

// Hist returns the histogram for op (for snapshots and rendering).
func (s *LatencySet) Hist(op Op) *Histogram { return &s.hists[op] }
