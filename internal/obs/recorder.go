package obs

import (
	"sync"
	"time"
)

// ShardCounters is one shard's cumulative observability state, as the DB
// gathers it for the flight recorder on every tick from the shard's Stats
// snapshot and latency histograms. All fields are cumulative since Open (or
// the last reset); the recorder diffs successive collections to produce
// per-tick deltas.
type ShardCounters struct {
	Ops          int64 // operations routed to the shard (puts+gets+deletes+applies)
	Put          HistSnapshot
	Get          HistSnapshot
	Phases       [NumPhases]HistSnapshot
	Stalls       int64 // slowdowns + stops
	StallNanos   int64 // cumulative time writes spent stalled
	QueueDepth   int   // gauge: overflowing merge sources awaiting background work
	L0Blocks     int   // gauge: L0 size at the last scheduler refresh
	WALSyncs     int64
	WALSyncNanos int64
	Checkpoints  int64 // checkpoints completed
	CheckpointNS int64 // cumulative capture + persist time of those checkpoints
	CacheHits    int64
	CacheMisses  int64
}

// PhaseStat is one phase's per-tick latency summary inside a
// TimelineSample. Quantiles are log-bucket upper bounds.
type PhaseStat struct {
	Phase string `json:"phase"`
	Count int64  `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P99NS int64  `json:"p99_ns"`
	MaxNS int64  `json:"max_ns"`
}

// TimelineSample is one time bucket of one shard's flight-recorder
// timeline: what happened between the previous tick and this one.
// Counter fields are per-tick deltas; QueueDepth and L0Blocks are
// gauges read at the tick.
type TimelineSample struct {
	Shard         int   `json:"shard"`
	Seq           int64 `json:"seq"`        // tick number, monotonically increasing
	UnixNanos     int64 `json:"unix_nanos"` // tick wall-clock time
	IntervalNanos int64 `json:"interval_nanos"`

	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`

	PutP50NS int64 `json:"put_p50_ns"`
	PutP99NS int64 `json:"put_p99_ns"`
	GetP50NS int64 `json:"get_p50_ns"`
	GetP99NS int64 `json:"get_p99_ns"`

	Stalls     int64 `json:"stalls"`
	StallNanos int64 `json:"stall_nanos"`
	QueueDepth int   `json:"queue_depth"`
	L0Blocks   int   `json:"l0_blocks"`

	WALSyncs      int64 `json:"wal_syncs"`
	WALSyncMeanNS int64 `json:"wal_sync_mean_ns"`

	// Checkpoints completed during the tick and the time they took end to
	// end (mostly off the write path, on the scheduler goroutine), so a
	// latency bump can be lined up against the checkpoint that overlapped it.
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointNanos int64 `json:"checkpoint_nanos"`

	CacheHitRate float64 `json:"cache_hit_rate"` // over the tick; 0 when no block reads

	// Phases carries the per-phase latency deltas for phases that saw
	// traffic this tick (requires tracing; empty otherwise).
	Phases []PhaseStat `json:"phases,omitempty"`
}

// RecorderConfig configures a flight recorder.
type RecorderConfig struct {
	Shards   int
	Interval time.Duration // tick period; default 1s
	Capacity int           // ring capacity per shard; default 512 samples
	// Collect returns the current cumulative counters, exactly one entry
	// per shard. Called on the recorder goroutine once per tick; it must
	// be safe to run concurrently with foreground operations.
	Collect func() []ShardCounters
}

// Recorder is the flight recorder: a ticker goroutine sampling
// per-shard engine counters into fixed-capacity rings, so a latency
// cliff minutes ago is inspectable as a timeline instead of a mystery
// aggregate max. Memory is bounded by Shards × Capacity samples.
type Recorder struct {
	cfg RecorderConfig
	mu  sync.Mutex
	// ring[shard] holds tick number q (1-based) at index (q-1) % Capacity:
	// every tick writes every shard, so seq alone says where the samples are.
	ring [][]TimelineSample
	prev []ShardCounters
	seq  int64 // ticks so far
	stop chan struct{}
	done chan struct{}
}

// StartRecorder builds a recorder and starts its ticker goroutine.
func StartRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	r := &Recorder{
		cfg:  cfg,
		ring: make([][]TimelineSample, cfg.Shards),
		prev: cfg.Collect(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range r.ring {
		r.ring[i] = make([]TimelineSample, cfg.Capacity)
	}
	go r.run()
	return r
}

func (r *Recorder) run() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.tick(now)
		}
	}
}

// tick collects, diffs against the previous collection, and appends one
// sample per shard.
func (r *Recorder) tick(now time.Time) {
	cur := r.cfg.Collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	for sh := range r.ring {
		r.ring[sh][r.slot(r.seq)] = diffSample(sh, r.seq, now, r.cfg.Interval, cur[sh], r.prev[sh])
	}
	r.prev = cur
}

// slot is the ring index of tick number q.
func (r *Recorder) slot(q int64) int { return int((q - 1) % int64(r.cfg.Capacity)) }

func diffSample(shard int, seq int64, now time.Time, interval time.Duration, cur, prev ShardCounters) TimelineSample {
	put := cur.Put.Sub(prev.Put)
	get := cur.Get.Sub(prev.Get)
	s := TimelineSample{
		Shard:         shard,
		Seq:           seq,
		UnixNanos:     now.UnixNano(),
		IntervalNanos: int64(interval),
		Ops:           cur.Ops - prev.Ops,
		PutP50NS:      int64(put.Quantile(0.50)),
		PutP99NS:      int64(put.Quantile(0.99)),
		GetP50NS:      int64(get.Quantile(0.50)),
		GetP99NS:      int64(get.Quantile(0.99)),
		Stalls:        cur.Stalls - prev.Stalls,
		StallNanos:    cur.StallNanos - prev.StallNanos,
		QueueDepth:    cur.QueueDepth,
		L0Blocks:      cur.L0Blocks,
		WALSyncs:      cur.WALSyncs - prev.WALSyncs,
	}
	if dc := cur.Checkpoints - prev.Checkpoints; dc > 0 {
		s.Checkpoints, s.CheckpointNanos = dc, cur.CheckpointNS-prev.CheckpointNS
	}
	if s.Ops < 0 { // reset landed between ticks
		s.Ops = 0
	}
	if s.Stalls < 0 {
		s.Stalls, s.StallNanos = 0, 0
	}
	if interval > 0 {
		s.OpsPerSec = float64(s.Ops) / interval.Seconds()
	}
	if ds := cur.WALSyncs - prev.WALSyncs; ds > 0 {
		s.WALSyncMeanNS = (cur.WALSyncNanos - prev.WALSyncNanos) / ds
	}
	hits := cur.CacheHits - prev.CacheHits
	misses := cur.CacheMisses - prev.CacheMisses
	if hits+misses > 0 {
		s.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	for p := range cur.Phases {
		d := cur.Phases[p].Sub(prev.Phases[p])
		if d.Count == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseStat{
			Phase: Phase(p).String(),
			Count: d.Count,
			P50NS: int64(d.Quantile(0.50)),
			P99NS: int64(d.Quantile(0.99)),
			MaxNS: int64(d.Max()),
		})
	}
	return s
}

// Timeline returns every shard's retained samples, oldest first. The
// outer slice is indexed by shard.
func (r *Recorder) Timeline() [][]TimelineSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first := max(1, r.seq-int64(r.cfg.Capacity)+1) // oldest tick still in the ring
	out := make([][]TimelineSample, len(r.ring))
	for sh := range r.ring {
		out[sh] = make([]TimelineSample, 0, r.seq-first+1)
		for q := first; q <= r.seq; q++ {
			out[sh] = append(out[sh], r.ring[sh][r.slot(q)])
		}
	}
	return out
}

// Latest returns each shard's most recent sample (zero Seq before the first
// tick); the Prometheus timeline gauges render from it.
func (r *Recorder) Latest() []TimelineSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TimelineSample, len(r.ring))
	for sh := range r.ring {
		if r.seq > 0 {
			out[sh] = r.ring[sh][r.slot(r.seq)]
		}
	}
	return out
}

// Close stops the ticker goroutine and waits for it to exit. Safe on a
// nil recorder and idempotent-unsafe: call once.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	close(r.stop)
	<-r.done
}
