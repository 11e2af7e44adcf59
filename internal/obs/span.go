package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one slice of an operation's wall time. A span attributes an
// op's total latency across these phases; whatever the instrumentation
// does not claim lands in PhaseOther, so the phase durations of a
// finished span always sum to the op's total latency exactly.
type Phase int

// The phase taxonomy. Write ops (Put/Delete/Apply) move through
// StallWait → LockWait → WALAppend/WALSync → Memtable → Cascade; read ops
// (Get/Scan) through Memtable (probe) → Bloom → CacheRead or DevRead,
// with Scan's heap work under KWayMerge. Setup, routing, fence-pointer
// search, and everything else is Other.
const (
	PhaseOther     Phase = iota // unattributed remainder: routing, setup, fence search
	PhaseStallWait              // compaction backpressure: slowdown sleep or stop gate
	PhaseWALAppend              // WAL frame encode + write, excluding the fsync
	PhaseWALSync                // group-commit fsync wait inside the append
	PhaseMemtable               // memtable insert (writes) or probe (reads)
	PhaseCascade                // cascade notification: gauge refresh and scheduler wake-up
	PhaseBloom                  // Bloom-filter membership checks
	PhaseCacheRead              // block fetch served by the cache
	PhaseDevRead                // block fetch that went to the device
	PhaseKWayMerge              // iterator heap work merging per-shard cursors
	PhaseLockWait               // admitted, waiting for the shard's writer lock (behind another writer or a checkpoint capture)
	NumPhases
)

// String returns the phase's metric label.
func (p Phase) String() string {
	switch p {
	case PhaseOther:
		return "other"
	case PhaseStallWait:
		return "stall_wait"
	case PhaseWALAppend:
		return "wal_append"
	case PhaseWALSync:
		return "wal_sync"
	case PhaseMemtable:
		return "memtable"
	case PhaseCascade:
		return "cascade"
	case PhaseBloom:
		return "bloom"
	case PhaseCacheRead:
		return "cache_read"
	case PhaseDevRead:
		return "dev_read"
	case PhaseKWayMerge:
		return "kway_merge"
	case PhaseLockWait:
		return "lock_wait"
	}
	return "unknown"
}

// SpanEvent is one finished operation span: the op's total wall time
// split across phases. Published on the event bus for sampled ops (1 in
// Options.TraceSampleRate) and for every op over the slow threshold;
// slow ops are additionally retained in the tracer's ring for
// /debug/lsm/slow. The phase durations sum to Total exactly.
type SpanEvent struct {
	Op      Op
	Shard   int // owning shard, or -1 for multi-shard ops (Scan)
	Start   time.Time
	Total   time.Duration
	Phases  [NumPhases]time.Duration
	Sampled bool // chosen by the 1-in-N sampler
	Slow    bool // Total exceeded the slow-op threshold
}

func (SpanEvent) event() {}

// PhaseSum returns the sum of the phase durations — by construction
// equal to Total for any span the tracer finished.
func (e SpanEvent) PhaseSum() time.Duration {
	var sum time.Duration
	for _, d := range e.Phases {
		sum += d
	}
	return sum
}

// Span accumulates one operation's phase times. A nil *Span is valid and
// inert: every method is a no-op, so instrumented paths call To/Finish
// unconditionally and pay one nil check when tracing is off. A span is
// owned by the goroutine running the op; methods must not be called
// concurrently.
type Span struct {
	tr      *Tracer
	op      Op
	shard   int
	start   time.Time
	mark    time.Time
	cur     Phase
	phases  [NumPhases]time.Duration
	sampled bool
}

// To closes the current phase at the current time and opens p. Time
// between Start and the first To is PhaseOther.
func (s *Span) To(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.phases[s.cur] += now.Sub(s.mark)
	s.mark = now
	s.cur = p
}

// Relabel renames the open phase: the time since the last To accrues to p
// instead. A block fetch opens PhaseDevRead and relabels itself
// PhaseCacheRead when the cache reports a hit, so each fetch lands in the
// phase of what actually served it.
func (s *Span) Relabel(p Phase) {
	if s == nil {
		return
	}
	s.cur = p
}

// Finish closes the span: the open phase is folded in, any residual
// (clock skew guard; zero in practice) lands in PhaseOther so the phase
// sum equals the total, and the event is routed — phase histograms
// always, the slow ring when over threshold, the bus when sampled or
// slow. The span is recycled; the caller must not touch it afterwards.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	now := time.Now()
	s.phases[s.cur] += now.Sub(s.mark)
	total := now.Sub(s.start)
	var sum time.Duration
	for _, d := range s.phases {
		sum += d
	}
	if rem := total - sum; rem != 0 {
		s.phases[PhaseOther] += rem
	}
	ev := SpanEvent{
		Op:      s.op,
		Shard:   s.shard,
		Start:   s.start,
		Total:   total,
		Phases:  s.phases,
		Sampled: s.sampled,
	}
	tr := s.tr
	ev.Slow = tr.slowThreshold() > 0 && total >= tr.slowThreshold()
	tr.finish(ev)
	*s = Span{}
	tr.pool.Put(s)
}

// Tracer owns span sampling, the per-shard phase histograms, and the
// bounded slow-op ring. A nil *Tracer is valid and disabled. Start costs
// two atomic loads when both sampling and slow capture are off — no
// allocation, no time.Now — which is the whole-engine cost of the
// feature when unconfigured.
type Tracer struct {
	bus  *Bus
	rate atomic.Int64  // sample 1 op in rate; 0 disables sampling
	slow atomic.Int64  // slow-op threshold in ns; 0 disables slow capture
	n    atomic.Uint64 // op counter driving the sampler
	pool sync.Pool

	// phases[shard][phase] feeds the flight recorder's per-phase deltas.
	// Multi-shard ops (shard -1) are not attributed here.
	phases [][NumPhases]Histogram

	ringMu sync.Mutex
	ring   []SpanEvent // slow ops, oldest overwritten first
	ringAt int
	ringN  int
}

// slowRingCap bounds the slow-op ring; at ~200 bytes per SpanEvent the
// capture is a few tens of kilobytes regardless of load.
const slowRingCap = 128

// NewTracer builds a tracer for a DB with the given shard count. rate
// is the 1-in-N sampling divisor (0 = off); slow is the always-capture
// threshold (0 = off). When both are zero the tracer is inert.
func NewTracer(bus *Bus, shards, rate int, slow time.Duration) *Tracer {
	if shards < 1 {
		shards = 1
	}
	t := &Tracer{
		bus:    bus,
		phases: make([][NumPhases]Histogram, shards),
		ring:   make([]SpanEvent, slowRingCap),
	}
	t.pool.New = func() any { return new(Span) }
	t.rate.Store(int64(rate))
	t.slow.Store(int64(slow))
	return t
}

// Enabled reports whether any span can currently be started.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.rate.Load() > 0 || t.slow.Load() > 0)
}

func (t *Tracer) slowThreshold() time.Duration {
	return time.Duration(t.slow.Load())
}

// Start opens a span for op on shard (-1 for multi-shard ops), or
// returns nil when tracing is off. With a slow threshold set every op is
// timed (the slow ones cannot be known in advance); with only sampling
// set, non-sampled ops return nil and cost two atomic loads plus the
// counter bump.
func (t *Tracer) Start(op Op, shard int) *Span {
	if t == nil {
		return nil
	}
	rate := t.rate.Load()
	slow := t.slow.Load()
	if rate == 0 && slow == 0 {
		return nil
	}
	sampled := rate > 0 && t.n.Add(1)%uint64(rate) == 0
	if !sampled && slow == 0 {
		return nil
	}
	s := t.pool.Get().(*Span)
	now := time.Now()
	*s = Span{tr: t, op: op, shard: shard, start: now, mark: now, sampled: sampled}
	return s
}

// finish routes a completed span's event.
func (t *Tracer) finish(ev SpanEvent) {
	if ev.Shard >= 0 && ev.Shard < len(t.phases) {
		hs := &t.phases[ev.Shard]
		for p, d := range ev.Phases {
			if d > 0 {
				hs[p].Observe(d)
			}
		}
	}
	if ev.Slow {
		t.ringMu.Lock()
		t.ring[t.ringAt] = ev
		t.ringAt = (t.ringAt + 1) % len(t.ring)
		if t.ringN < len(t.ring) {
			t.ringN++
		}
		t.ringMu.Unlock()
	}
	if (ev.Sampled || ev.Slow) && t.bus.Enabled() {
		t.bus.Publish(ev)
	}
}

// SlowOps returns the captured slow-op spans, newest first.
func (t *Tracer) SlowOps() []SpanEvent {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	out := make([]SpanEvent, 0, t.ringN)
	for i := 0; i < t.ringN; i++ {
		out = append(out, t.ring[(t.ringAt-1-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// PhaseSnapshot returns shard's cumulative per-phase histograms (the
// flight recorder diffs successive snapshots for its timeline buckets).
func (t *Tracer) PhaseSnapshot(shard int) [NumPhases]HistSnapshot {
	var out [NumPhases]HistSnapshot
	if t == nil || shard < 0 || shard >= len(t.phases) {
		return out
	}
	for p := range out {
		out[p] = t.phases[shard][p].Snapshot()
	}
	return out
}

// ResetPhases zeroes the per-shard phase histograms (measurement-window
// boundary, paired with LatencySet.Reset). The slow ring is a debugging
// capture, not a counter, and is left intact.
func (t *Tracer) ResetPhases() {
	if t == nil {
		return
	}
	for s := range t.phases {
		for p := range t.phases[s] {
			t.phases[s][p].Reset()
		}
	}
}
