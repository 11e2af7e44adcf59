package obs

import (
	"math"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, // negative clamps to zero
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1023, 10},
		{1024, 11},
		{1 << 47, NumBuckets - 1},         // exactly at the top
		{math.MaxInt64, NumBuckets - 1},   // far beyond clamps into the top bucket
		{time.Hour * 100, NumBuckets - 1}, // 39h+ clamps too
		{time.Microsecond, 10},            // 1000ns, bits.Len64 = 10
		{time.Millisecond, 20},            // 1e6 ns
		{time.Second, 30},                 // 1e9 ns
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// The bucket invariant: d lands in [BucketUpper(i-1), BucketUpper(i)).
	for _, d := range []time.Duration{1, 2, 7, 100, 4096, 123456789} {
		i := bucketOf(d)
		if d >= BucketUpper(i) {
			t.Errorf("d=%d ≥ upper bound %d of its bucket %d", d, BucketUpper(i), i)
		}
		if i > 0 && d < BucketUpper(i-1) {
			t.Errorf("d=%d < lower bound %d of its bucket %d", d, BucketUpper(i-1), i)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 11 {
		t.Errorf("Count = %d, want 11", s.Count)
	}
	if want := int64(10*100 + 1e6); s.Sum != want {
		t.Errorf("Sum = %d, want %d", s.Sum, want)
	}
	if s.Buckets[bucketOf(100)] != 10 {
		t.Errorf("bucket of 100ns = %d, want 10", s.Buckets[bucketOf(100)])
	}
}

func TestSnapshotMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Observe(1000)
	b.Observe(10)
	b.Observe(1 << 20)

	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 4 {
		t.Errorf("merged Count = %d, want 4", sa.Count)
	}
	if want := int64(10 + 1000 + 10 + 1<<20); sa.Sum != want {
		t.Errorf("merged Sum = %d, want %d", sa.Sum, want)
	}
	if sa.Buckets[bucketOf(10)] != 2 {
		t.Errorf("merged bucket of 10ns = %d, want 2", sa.Buckets[bucketOf(10)])
	}
	// Merge must equal observing everything into one histogram.
	var all Histogram
	for _, d := range []time.Duration{10, 1000, 10, 1 << 20} {
		all.Observe(d)
	}
	if got := all.Snapshot(); got != sa {
		t.Errorf("merge differs from combined observation:\n got %+v\nwant %+v", sa, got)
	}
}

func TestSnapshotQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(1) // bucket 1, upper bound 2ns
	}
	for i := 0; i < 50; i++ {
		h.Observe(1000) // bucket 10, upper bound 1024ns
	}
	s := h.Snapshot()

	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("P50 = %d, want 2 (upper edge of the low bucket)", got)
	}
	if got := s.Quantile(0.51); got != 1024 {
		t.Errorf("P51 = %d, want 1024", got)
	}
	if got := s.Quantile(1); got != 1024 {
		t.Errorf("P100 = %d, want 1024", got)
	}
	if got := s.Max(); got != 1024 {
		t.Errorf("Max = %d, want 1024", got)
	}
	if got := s.Mean(); got != time.Duration((50*1+50*1000)/100) {
		t.Errorf("Mean = %d", got)
	}

	// Quantile upper-bound property: at most q·count observations exceed it.
	if q50 := s.Quantile(0.5); q50 < 1 {
		t.Errorf("P50 = %d below every observation", q50)
	}
}

func TestSnapshotQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("empty snapshot should report zeros")
	}
	var h Histogram
	h.Observe(100)
	s := h.Snapshot()
	if got := s.Quantile(math.NaN()); got != 0 {
		t.Errorf("Quantile(NaN) = %d, want 0", got)
	}
	if got := s.Quantile(-1); got != BucketUpper(bucketOf(100)) {
		t.Errorf("Quantile(-1) = %d, want clamped-to-rank-1 value", got)
	}
	if got := s.Quantile(2); got != BucketUpper(bucketOf(100)) {
		t.Errorf("Quantile(2) = %d, want top observation's bucket edge", got)
	}
}

func TestLatencySetGating(t *testing.T) {
	var s LatencySet
	if s.Enabled() {
		t.Fatal("fresh LatencySet enabled")
	}
	// Disabled: Start returns the zero time, the pair records nothing, and
	// direct Observe is dropped.
	start := s.Start()
	if !start.IsZero() {
		t.Error("Start on disabled set returned a real time")
	}
	s.Done(OpGet, start)
	s.Observe(OpMerge, time.Second)
	if c := s.Hist(OpGet).Snapshot().Count; c != 0 {
		t.Errorf("disabled set recorded %d get observations", c)
	}
	if c := s.Hist(OpMerge).Snapshot().Count; c != 0 {
		t.Errorf("disabled set recorded %d merge observations", c)
	}

	s.Enable(true)
	start = s.Start()
	if start.IsZero() {
		t.Fatal("Start on enabled set returned the zero time")
	}
	s.Done(OpGet, start)
	s.Observe(OpMerge, 123*time.Microsecond)
	if c := s.Hist(OpGet).Snapshot().Count; c != 1 {
		t.Errorf("get count = %d, want 1", c)
	}
	if c := s.Hist(OpMerge).Snapshot().Count; c != 1 {
		t.Errorf("merge count = %d, want 1", c)
	}

	var nilSet *LatencySet
	if nilSet.Enabled() {
		t.Error("nil LatencySet enabled")
	}
	nilSet.Observe(OpGet, time.Microsecond) // must not panic
}

func TestOpString(t *testing.T) {
	want := map[Op]string{
		OpGet: "get", OpPut: "put", OpDelete: "delete",
		OpScan: "scan", OpMerge: "merge", NumOps: "unknown",
	}
	for op, s := range want {
		if got := op.String(); got != s {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, s)
		}
	}
}
