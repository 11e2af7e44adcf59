package lsmssd

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"lsmssd/internal/health"
	"lsmssd/internal/obs"
)

// Event types re-exported from the internal observability layer. A sink
// registered with DB.Subscribe receives these; type-switch to consume:
//
//	cancel := db.Subscribe(func(ev lsmssd.Event) {
//		if m, ok := ev.(lsmssd.MergeEvent); ok {
//			log.Printf("merge L%d→L%d wrote %d blocks", m.From, m.To, m.TotalWrites())
//		}
//	})
//	defer cancel()
//
// Events are delivered asynchronously on a single dispatcher goroutine, in
// publication order. Construct these types only to test your own sinks;
// the engine is the producer.
type (
	// Event is the interface all observability events implement.
	Event = obs.Event
	// MergeEvent describes one executed merge (window choice, overlap,
	// preservation, repair cases, I/O and wall-clock cost).
	MergeEvent = obs.MergeEvent
	// FlushEvent describes one memtable drain.
	FlushEvent = obs.FlushEvent
	// GrowEvent records the tree gaining a storage level.
	GrowEvent = obs.GrowEvent
	// CacheEvent reports buffer-cache traffic deltas between merges.
	CacheEvent = obs.CacheEvent
	// WarnEvent is an operator-facing warning (e.g. waste-factor pressure).
	WarnEvent = obs.WarnEvent
	// RunEvent marks measurement-window boundaries in recorded traces.
	RunEvent = obs.RunEvent
	// StallEvent records a write that hit compaction backpressure: the
	// pacing sleep from an L0 of 2×MemtableBlocks blocks, or the hard stall
	// gate from 4×MemtableBlocks.
	StallEvent = obs.StallEvent
	// WALEvent reports a write-ahead-log segment rotation or a
	// checkpoint-driven segment garbage collection.
	WALEvent = obs.WALEvent
	// RecoveryEvent summarizes the crash recovery Open performed (frames
	// replayed, torn tail truncated).
	RecoveryEvent = obs.RecoveryEvent
	// CheckpointEvent describes one completed checkpoint of one shard: the
	// WAL sequence it covers, how long the writer lock was held to capture
	// it, how long the device sync, manifest write and garbage collection
	// took without it, and what they reclaimed.
	CheckpointEvent = obs.CheckpointEvent
	// SpanEvent is one finished operation span: total wall time split
	// across engine phases (stall wait, writer-lock wait, WAL append, fsync
	// wait, memtable, cascade, Bloom, cache vs device reads, k-way merge),
	// summing to the total exactly. Published for sampled ops (Options.TraceSampleRate)
	// and every op over Options.SlowOpThreshold.
	SpanEvent = obs.SpanEvent
	// HealthEvent records one accepted shard health transition (the From,
	// To states, a machine-stable Cause tag, and the triggering error's
	// text). Every demotion and promotion publishes exactly one.
	HealthEvent = obs.HealthEvent
	// ScrubEvent summarizes one completed scrub pass over a shard's live
	// blocks (checked, corrupt, repaired, still-quarantined counts).
	ScrubEvent = obs.ScrubEvent
	// TimelineSample is one time bucket of one shard's flight-recorder
	// timeline; see DB.Timeline.
	TimelineSample = obs.TimelineSample
	// PhaseStat is one phase's latency summary inside a TimelineSample.
	PhaseStat = obs.PhaseStat
)

// Subscribe attaches sink to the DB's event bus and returns a cancel
// function. The sink runs on the bus's dispatcher goroutine, never on the
// engine's writer path; a slow sink causes events to be dropped (and
// counted), never a stalled merge. With no subscribers the engine
// constructs no events at all, so an unobserved DB's write counts are
// unaffected by the observability layer. Close delivers pending events
// before returning; cancel only stops future deliveries.
func (db *DB) Subscribe(sink func(Event)) (cancel func()) {
	return db.bus.Subscribe(obs.SinkFunc(sink))
}

// EventDrops returns the number of events discarded because sinks could
// not keep up with the engine (the bus never blocks the writer).
func (db *DB) EventDrops() int64 { return db.bus.Drops() }

// MetricsAddr returns the bound address of the observability endpoint
// ("host:port", with ephemeral ports resolved), or "" when
// Options.MetricsAddr was not set.
func (db *DB) MetricsAddr() string {
	if db.metrics == nil {
		return ""
	}
	return db.metrics.Addr()
}

// timelineInterval is the flight recorder's tick: one sample per shard per
// second. A variable only so package tests can tick faster.
var timelineInterval = time.Second

// startObs finishes Open: it starts the flight recorder when
// Options.Metrics is on and the HTTP observability endpoint when
// Options.MetricsAddr is set. On listen failure the DB is closed and the
// error returned, so Open never hands back a half-observable store.
func (db *DB) startObs() (*DB, error) {
	if db.opts.Metrics {
		db.recorder = obs.StartRecorder(obs.RecorderConfig{
			Shards:   len(db.shards),
			Interval: timelineInterval,
			Collect:  db.collectShardCounters,
		})
	}
	if db.opts.MetricsAddr == "" {
		return db, nil
	}
	srv, err := obs.StartServer(obs.ServerConfig{
		Addr:     db.opts.MetricsAddr,
		Metrics:  db.metricFamilies,
		Debug:    db.debugLSM,
		Timeline: func() any { return db.Timeline() },
		Slow:     func() any { return db.SlowOps() },
	})
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	db.metrics = srv
	return db, nil
}

// collectShardCounters gathers every shard's cumulative observability
// counters for one flight-recorder tick: the shard's Stats snapshot and the
// log's Stats.WAL, so the timeline can show nothing Stats does not, plus
// the histograms the per-tick quantiles are cut from. It runs on the
// recorder goroutine concurrently with foreground traffic, like any other
// Stats caller.
func (db *DB) collectShardCounters() []obs.ShardCounters {
	out := make([]obs.ShardCounters, len(db.shards))
	wal := db.walStats() // the one log, on every shard's timeline
	for i, s := range db.shards {
		ss, _ := s.stats() // the recorder stops before the shards close
		put, get := s.lat.Hist(obs.OpPut).Snapshot(), s.lat.Hist(obs.OpGet).Snapshot()
		del, app := s.lat.Hist(obs.OpDelete).Snapshot(), s.lat.Hist(obs.OpApply).Snapshot()
		out[i] = obs.ShardCounters{
			Ops:          put.Count + get.Count + del.Count + app.Count,
			Put:          put,
			Get:          get,
			Phases:       db.tracer.PhaseSnapshot(i),
			Stalls:       ss.Compaction.Slowdowns + ss.Compaction.Stops,
			StallNanos:   int64(ss.Compaction.SlowdownTime + ss.Compaction.StopTime),
			QueueDepth:   ss.Compaction.QueueDepth,
			L0Blocks:     ss.Compaction.L0Blocks,
			WALSyncs:     wal.Syncs,
			WALSyncNanos: int64(wal.SyncTime),
			Checkpoints:  ss.Checkpoints,
			CheckpointNS: int64(ss.CheckpointTime),
			CacheHits:    ss.CacheHits,
			CacheMisses:  ss.CacheMisses,
		}
	}
	return out
}

// Timeline returns the flight recorder's retained samples, one slice per
// shard, oldest first: a per-interval time series of ops/s, latency
// quantiles, per-phase deltas (when tracing is on), stall state,
// compaction debt, WAL sync latency, and cache hit rate over the last 512
// intervals. Nil unless Options.Metrics (or MetricsAddr) is set. Also
// served at /debug/lsm/timeline.
func (db *DB) Timeline() [][]TimelineSample {
	return db.recorder.Timeline()
}

// SlowOps returns the captured slow operations, newest first: every op
// whose total latency met Options.SlowOpThreshold, with its full phase
// breakdown, retained in a bounded ring. Nil unless SlowOpThreshold is
// set. Also served at /debug/lsm/slow.
func (db *DB) SlowOps() []SpanEvent {
	return db.tracer.SlowOps()
}

func shardLabel(id int) obs.Label { return obs.Label{Name: "shard", Value: strconv.Itoa(id)} }

// sample appends the row's value in c to its family, starting the family
// unless the previous row already did. shard < 0 is the aggregate; for a
// shard the one naming rule applies, lsmssd_X → lsmssd_shard_X, the help is
// the row's shardHelp or else the aggregate's marked as per shard, and the
// sample carries the shard label.
func (m *metric[S]) sample(fams []obs.Family, shard int, c *S) []obs.Family {
	name, help := m.name, m.help
	var labels []obs.Label
	if shard >= 0 {
		name = "lsmssd_shard_" + strings.TrimPrefix(m.name, "lsmssd_")
		if help = m.shardHelp; help == "" && m.help != "" {
			help = "Per shard: " + m.help
		}
		labels = append(labels, shardLabel(shard))
	}
	if m.kind != "" {
		labels = append(labels, obs.Label{Name: "kind", Value: m.kind})
	}
	if n := len(fams); n == 0 || fams[n-1].Name != name {
		typ := obs.TypeCounter
		if m.typ == gauge {
			typ = obs.TypeGauge
		}
		fams = append(fams, obs.Family{Name: name, Help: help, Type: typ})
	}
	f := &fams[len(fams)-1]
	f.Samples = append(f.Samples, obs.Sample{Labels: labels, Value: m.get(c)})
	return fams
}

// series is one family over a list of labelled items (levels, the latest
// timeline tick of each shard) rather than over Counters.
type series[T any] struct {
	name, help string
	typ        obs.FamilyType
	value      func(T) float64
}

func seriesFamilies[T any](fams []obs.Family, rows []series[T], items []T, label func(T) obs.Label) []obs.Family {
	for _, r := range rows {
		f := obs.Family{Name: r.name, Help: r.help, Type: r.typ}
		for _, it := range items {
			f.Samples = append(f.Samples, obs.Sample{Labels: []obs.Label{label(it)}, Value: r.value(it)})
		}
		fams = append(fams, f)
	}
	return fams
}

var levelSeries = []series[LevelStats]{
	{"lsmssd_level_blocks", "Data blocks in the level.", obs.TypeGauge, func(l LevelStats) float64 { return float64(l.Blocks) }},
	{"lsmssd_level_records", "Records in the level.", obs.TypeGauge, func(l LevelStats) float64 { return float64(l.Records) }},
	{"lsmssd_level_capacity_blocks", "Level capacity K_i in blocks.", obs.TypeGauge, func(l LevelStats) float64 { return float64(l.CapacityBlocks) }},
	{"lsmssd_level_waste_factor", "Fraction of empty record slots in the level (bounded by epsilon).", obs.TypeGauge, func(l LevelStats) float64 { return l.WasteFactor }},
	{"lsmssd_level_blocks_written_total", "Cumulative blocks written into the level.", obs.TypeCounter, func(l LevelStats) float64 { return float64(l.BlocksWritten) }},
	{"lsmssd_level_compactions_total", "Compactions of the level.", obs.TypeCounter, func(l LevelStats) float64 { return float64(l.Compactions) }},
}

var timelineSeries = []series[TimelineSample]{
	{"lsmssd_timeline_ops_per_sec", "Operations per second over the last flight-recorder interval.", obs.TypeGauge, func(t TimelineSample) float64 { return t.OpsPerSec }},
	{"lsmssd_timeline_put_p99_seconds", "Put p99 over the last flight-recorder interval.", obs.TypeGauge, func(t TimelineSample) float64 { return float64(t.PutP99NS) * 1e-9 }},
	{"lsmssd_timeline_get_p99_seconds", "Get p99 over the last flight-recorder interval.", obs.TypeGauge, func(t TimelineSample) float64 { return float64(t.GetP99NS) * 1e-9 }},
	{"lsmssd_timeline_stalls", "Write stalls during the last flight-recorder interval.", obs.TypeGauge, func(t TimelineSample) float64 { return float64(t.Stalls) }},
	{"lsmssd_timeline_l0_blocks", "L0 size in blocks at the last flight-recorder tick.", obs.TypeGauge, func(t TimelineSample) float64 { return float64(t.L0Blocks) }},
	{"lsmssd_timeline_wal_sync_mean_seconds", "Mean WAL fsync latency over the last flight-recorder interval.", obs.TypeGauge, func(t TimelineSample) float64 { return float64(t.WALSyncMeanNS) * 1e-9 }},
	{"lsmssd_timeline_cache_hit_rate", "Buffer-cache hit rate over the last flight-recorder interval.", obs.TypeGauge, func(t TimelineSample) float64 { return t.CacheHitRate }},
}

// metricFamilies materializes the /metrics payload from a Stats snapshot:
// every metricTable row over the aggregate and, on a sharded DB, over each
// shard; every walTable row over the one log; then what is not a Counters
// field (the bus, the shard count and health states, per-level rows,
// histograms, the timeline's latest tick).
// Called per scrape from HTTP handler goroutines; everything it reads is
// lock-free or behind the few-instruction view mutex.
func (db *DB) metricFamilies() []obs.Family {
	s := db.Stats()
	var fams []obs.Family
	for i := range metricTable {
		fams = metricTable[i].sample(fams, -1, &s.Counters)
	}
	for i := range walTable {
		fams = walTable[i].sample(fams, -1, &s.WAL)
	}
	if len(s.Shards) > 1 {
		for i := range metricTable {
			for j := range s.Shards {
				fams = metricTable[i].sample(fams, j, &s.Shards[j].Counters)
			}
		}
	}
	fams = seriesFamilies(fams, []series[*shard]{{"lsmssd_shard_health", "Shard fault-domain state: 0 healthy, 1 degraded, 2 read-only, 3 failed.", obs.TypeGauge,
		func(sh *shard) float64 { return float64(sh.health.State()) }}}, db.shards, func(sh *shard) obs.Label { return shardLabel(sh.id) })
	fams = append(fams,
		obs.Family{Name: "lsmssd_event_drops_total", Help: "Observability events dropped because sinks lagged.", Type: obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(db.bus.Drops())}}},
		obs.Family{Name: "lsmssd_shards", Help: "Number of key-space shards (independent LSM trees) behind this DB.", Type: obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(len(db.shards))}}},
	)
	fams = seriesFamilies(fams, levelSeries, s.Levels, func(l LevelStats) obs.Label {
		return obs.Label{Name: "level", Value: strconv.Itoa(l.Level)}
	})

	hist := func(f *obs.Family, snap obs.HistSnapshot, labels ...obs.Label) {
		f.Hists = append(f.Hists, obs.HistSample{Labels: labels, Snap: snap, Scale: 1e-9})
	}
	ops := obs.Family{
		Name: "lsmssd_op_duration_seconds",
		Help: "Operation latency (log-spaced buckets). Recorded only when Options.Metrics or MetricsAddr is set.",
		Type: obs.TypeHistogram,
	}
	shardOps := obs.Family{
		Name: "lsmssd_shard_op_duration_seconds",
		Help: "Operation latency by owning shard (log-spaced buckets).",
		Type: obs.TypeHistogram,
	}
	for op := obs.Op(0); op < obs.NumOps && db.lat.Enabled(); op++ {
		opLabel := obs.Label{Name: "op", Value: op.String()}
		all := db.lat.Hist(op).Snapshot() // the router's series (Scan) plus every shard's
		for _, sh := range db.shards {
			snap := sh.lat.Hist(op).Snapshot()
			all.Merge(snap)
			if snap.Count > 0 {
				hist(&shardOps, snap, shardLabel(sh.id), opLabel)
			}
		}
		hist(&ops, all, opLabel)
	}
	fams = append(fams, ops)
	if db.lat.Enabled() && len(db.shards) > 1 {
		fams = append(fams, shardOps)
	}
	if db.tracer.Enabled() {
		phases := obs.Family{
			Name: "lsmssd_phase_duration_seconds",
			Help: "Traced-operation time by engine phase, summed across shards (requires TraceSampleRate or SlowOpThreshold).",
			Type: obs.TypeHistogram,
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			var snap obs.HistSnapshot
			for i := range db.shards {
				snap.Merge(db.tracer.PhaseSnapshot(i)[p])
			}
			if snap.Count > 0 {
				hist(&phases, snap, obs.Label{Name: "phase", Value: p.String()})
			}
		}
		fams = append(fams, phases)
	}
	if latest := db.recorder.Latest(); len(latest) > 0 {
		fams = seriesFamilies(fams, timelineSeries, latest, func(t TimelineSample) obs.Label { return shardLabel(t.Shard) })
	}
	return fams
}

// debugLSM is the /debug/lsm payload: the Stats snapshot as JSON (Counters'
// and LevelStats' tags are its keys; the per-shard breakdown is per_shard),
// plus what this endpoint alone shows — the policy and shard count, the
// snapshot machinery's live views and deferred frees, the bus's drops, the
// shards' health detail once any is unhealthy — and the flat spellings of
// two Compaction values that scrapers of the old dump read.
func (db *DB) debugLSM() any {
	d := struct {
		Policy     string `json:"policy"`
		ShardCount int    `json:"shards"`
		Stats
		LiveViews       int           `json:"live_views"`
		DeferredFrees   int64         `json:"deferred_frees"`
		EventDrops      int64         `json:"event_drops"`
		CompactionQueue int           `json:"compaction_queue_depth"`
		WriteStalls     int64         `json:"write_stalls"`
		ShardHealth     []ShardHealth `json:"shard_health,omitempty"`
	}{Policy: db.opts.MergePolicy.String(), ShardCount: len(db.shards), Stats: db.Stats(), EventDrops: db.bus.Drops()}
	for _, sh := range db.shards {
		d.LiveViews += sh.tree.LiveViews()
		d.DeferredFrees += sh.tree.DeferredFrees()
	}
	d.CompactionQueue = d.Compaction.QueueDepth
	d.WriteStalls = d.Compaction.Slowdowns + d.Compaction.Stops
	if d.Health != health.Healthy.String() {
		d.ShardHealth = db.Health().Shards
	}
	return d
}
