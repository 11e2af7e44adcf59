package lsmssd

import (
	"errors"
	"strconv"

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
	// StallEvent records a write that hit compaction backpressure (the
	// pacing sleep or the hard stall gate) under BackgroundCompaction.
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

// startObs finishes Open: it starts the flight recorder when
// Options.Metrics is on and the HTTP observability endpoint when
// Options.MetricsAddr is set. On listen failure the DB is closed and the
// error returned, so Open never hands back a half-observable store.
func (db *DB) startObs() (*DB, error) {
	if db.opts.Metrics {
		db.recorder = obs.StartRecorder(obs.RecorderConfig{
			Shards:   len(db.shards),
			Interval: db.opts.TimelineInterval,
			Capacity: db.opts.TimelineCapacity,
			Collect:  db.collectShardCounters,
		})
	}
	if db.opts.MetricsAddr == "" {
		return db, nil
	}
	srv, err := obs.StartServer(obs.ServerConfig{
		Addr:     db.opts.MetricsAddr,
		Metrics:  db.metricFamilies,
		Debug:    func() any { return db.debugState() },
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
// counters for one flight-recorder tick. It runs on the recorder
// goroutine concurrently with foreground traffic: everything it touches
// is atomics, internal short-lived mutexes, or fields that only change
// after the recorder is stopped (s.wal).
func (db *DB) collectShardCounters() []obs.ShardCounters {
	out := make([]obs.ShardCounters, len(db.shards))
	for i, s := range db.shards {
		sc := &out[i]
		sc.Put = s.lat.Hist(obs.OpPut).Snapshot()
		sc.Get = s.lat.Hist(obs.OpGet).Snapshot()
		del := s.lat.Hist(obs.OpDelete).Snapshot()
		app := s.lat.Hist(obs.OpApply).Snapshot()
		sc.Ops = sc.Put.Count + sc.Get.Count + del.Count + app.Count
		sc.Phases = db.tracer.PhaseSnapshot(i)
		cs := s.sched.Snapshot()
		sc.Stalls = cs.Slowdowns + cs.Stops
		sc.StallNanos = int64(cs.SlowdownTime + cs.StopTime)
		sc.QueueDepth = cs.QueueDepth
		sc.L0Blocks = cs.L0Blocks
		if s.wal != nil {
			ws := s.wal.Stats()
			sc.WALSyncs = ws.Syncs
			sc.WALSyncNanos = ws.SyncNanos
		}
		sc.Checkpoints, sc.CheckpointNS = s.ckpts.Load(), s.ckptNanos.Load()
		if c := s.tree.Cache(); c != nil {
			st := c.Stats()
			sc.CacheHits, sc.CacheMisses = st.Hits, st.Misses
		}
	}
	return out
}

// Timeline returns the flight recorder's retained samples, one slice per
// shard, oldest first: a per-interval time series of ops/s, latency
// quantiles, per-phase deltas (when tracing is on), stall state,
// compaction debt, WAL sync latency, and cache hit rate over the last
// Options.TimelineCapacity intervals. Nil unless Options.Metrics (or
// MetricsAddr) is set. Also served at /debug/lsm/timeline.
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

// metricFamilies materializes the /metrics payload from a Stats snapshot.
// Called per scrape from HTTP handler goroutines; everything it reads is
// lock-free or behind the few-instruction view mutex.
func (db *DB) metricFamilies() []obs.Family {
	s := db.Stats()
	counter := func(name, help string, v int64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: obs.TypeCounter,
			Samples: []obs.Sample{{Value: float64(v)}}}
	}
	gauge := func(name, help string, v float64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: obs.TypeGauge,
			Samples: []obs.Sample{{Value: v}}}
	}
	fams := []obs.Family{
		counter("lsmssd_blocks_written_total", "Data blocks written to the device (the paper's cost metric).", s.BlocksWritten),
		counter("lsmssd_blocks_read_total", "Data blocks read from the device (cache misses only when caching is on).", s.BlocksRead),
		gauge("lsmssd_live_blocks", "Device blocks currently allocated.", float64(s.LiveBlocks)),
		counter("lsmssd_requests_total", "Modification requests processed (inserts plus deletes).", s.Requests),
		counter("lsmssd_inserts_total", "Insert/update requests processed.", s.Inserts),
		counter("lsmssd_deletes_total", "Delete requests processed.", s.Deletes),
		counter("lsmssd_lookups_total", "Point lookups served.", s.Lookups),
		counter("lsmssd_scans_total", "Range scans started.", s.Scans),
		counter("lsmssd_request_bytes_total", "Key+payload bytes of modifications processed.", s.RequestBytes),
		counter("lsmssd_merges_total", "Merges executed.", s.Merges),
		counter("lsmssd_full_merges_total", "Merges that took a whole source level.", s.FullMerges),
		gauge("lsmssd_height", "Tree height including the memtable level.", float64(s.Height)),
		gauge("lsmssd_records", "Records stored, including shadowed versions and tombstones.", float64(s.Records)),
		gauge("lsmssd_memtable_records", "Records currently in the memtable (L0).", float64(s.MemtableRecords)),
		counter("lsmssd_cache_hits_total", "Buffer-cache hits.", s.CacheHits),
		counter("lsmssd_cache_misses_total", "Buffer-cache misses.", s.CacheMisses),
		counter("lsmssd_bloom_skipped_total", "Block reads avoided by Bloom filters.", s.BloomSkipped),
		counter("lsmssd_bloom_passed_total", "Lookups Bloom filters could not rule out.", s.BloomPassed),
		counter("lsmssd_event_drops_total", "Observability events dropped because sinks lagged.", db.bus.Drops()),
		gauge("lsmssd_compaction_queue_depth", "Overflowing merge sources (memtable and full levels) awaiting compaction, plus one per shard with a requested-or-running background checkpoint; always 0 in sync mode.", float64(s.Compaction.QueueDepth)),
		counter("lsmssd_compaction_steps_total", "Cascade steps executed by the background compaction schedulers.", s.Compaction.Steps),
		gauge("lsmssd_shards", "Number of key-space shards (independent LSM trees) behind this DB.", float64(len(db.shards))),
		gauge("lsmssd_quarantined_blocks", "Corrupt blocks currently quarantined (pinned, excluded from merges) across all shards.", float64(s.Quarantined)),
	}
	{
		hf := obs.Family{
			Name: "lsmssd_shard_health",
			Help: "Shard fault-domain state: 0 healthy, 1 degraded, 2 read-only, 3 failed.",
			Type: obs.TypeGauge,
		}
		for _, sh := range db.shards {
			hf.Samples = append(hf.Samples, obs.Sample{
				Labels: []obs.Label{{Name: "shard", Value: strconv.Itoa(sh.id)}},
				Value:  float64(sh.health.State()),
			})
		}
		fams = append(fams, hf)
	}
	if len(db.shards) > 1 {
		shardLabel := func(n int) []obs.Label {
			return []obs.Label{{Name: "shard", Value: strconv.Itoa(n)}}
		}
		perShard := []struct {
			name, help string
			typ        obs.FamilyType
			value      func(ShardStats) float64
		}{
			{"lsmssd_shard_blocks_written_total", "Data blocks written by the shard's tree.", obs.TypeCounter,
				func(ss ShardStats) float64 { return float64(ss.BlocksWritten) }},
			{"lsmssd_shard_requests_total", "Modification requests routed to the shard.", obs.TypeCounter,
				func(ss ShardStats) float64 { return float64(ss.Requests) }},
			{"lsmssd_shard_records", "Records stored in the shard, including shadowed versions and tombstones.", obs.TypeGauge,
				func(ss ShardStats) float64 { return float64(ss.Records) }},
			{"lsmssd_shard_height", "Shard tree height including the memtable level.", obs.TypeGauge,
				func(ss ShardStats) float64 { return float64(ss.Height) }},
		}
		for _, m := range perShard {
			f := obs.Family{Name: m.name, Help: m.help, Type: m.typ}
			for _, ss := range s.Shards {
				f.Samples = append(f.Samples, obs.Sample{Labels: shardLabel(ss.Shard), Value: m.value(ss)})
			}
			fams = append(fams, f)
		}
	}
	if s.WAL.Enabled {
		fams = append(fams,
			gauge("lsmssd_wal_enabled", "1 when the write-ahead log is on.", 1),
			counter("lsmssd_wal_appends_total", "WAL frames appended (one per Put/Delete/Apply).", s.WAL.Appends),
			counter("lsmssd_wal_ops_total", "Operations inside appended WAL frames.", s.WAL.Ops),
			counter("lsmssd_wal_bytes_total", "WAL frame bytes written, headers included.", s.WAL.Bytes),
			counter("lsmssd_wal_syncs_total", "WAL fsyncs issued by the sync policy or checkpoints.", s.WAL.Syncs),
			counter("lsmssd_wal_rotations_total", "WAL segments sealed (each seals a checkpoint).", s.WAL.Rotations),
			gauge("lsmssd_wal_segments", "WAL segment files currently on disk.", float64(s.WAL.Segments)),
			gauge("lsmssd_wal_last_seq", "Sequence of the newest logged frame.", float64(s.WAL.LastSeq)),
			counter("lsmssd_wal_recovered_ops_total", "Operations re-applied by crash recovery at Open.", int64(s.WAL.Recovery.Ops)),
			counter("lsmssd_wal_recovered_torn_bytes_total", "Bytes truncated from the WAL's torn tail at Open.", s.WAL.Recovery.TornBytes),
		)
	}
	stallKind := func(kind string) []obs.Label {
		return []obs.Label{{Name: "kind", Value: kind}}
	}
	fams = append(fams,
		obs.Family{
			Name: "lsmssd_write_stalls_total",
			Help: "Writes that hit compaction backpressure, by kind (slowdown = pacing sleep, stop = hard gate).",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: stallKind("slowdown"), Value: float64(s.Compaction.Slowdowns)},
				{Labels: stallKind("stop"), Value: float64(s.Compaction.Stops)},
			},
		},
		obs.Family{
			Name: "lsmssd_write_stall_seconds_total",
			Help: "Cumulative time writes spent stalled, by kind.",
			Type: obs.TypeCounter,
			Samples: []obs.Sample{
				{Labels: stallKind("slowdown"), Value: s.Compaction.SlowdownTime.Seconds()},
				{Labels: stallKind("stop"), Value: s.Compaction.StopTime.Seconds()},
			},
		},
	)

	levelLabel := func(n int) []obs.Label {
		return []obs.Label{{Name: "level", Value: strconv.Itoa(n)}}
	}
	perLevel := []struct {
		name, help string
		typ        obs.FamilyType
		value      func(LevelStats) float64
	}{
		{"lsmssd_level_blocks", "Data blocks in the level.", obs.TypeGauge,
			func(l LevelStats) float64 { return float64(l.Blocks) }},
		{"lsmssd_level_records", "Records in the level.", obs.TypeGauge,
			func(l LevelStats) float64 { return float64(l.Records) }},
		{"lsmssd_level_capacity_blocks", "Level capacity K_i in blocks.", obs.TypeGauge,
			func(l LevelStats) float64 { return float64(l.CapacityBlocks) }},
		{"lsmssd_level_waste_factor", "Fraction of empty record slots in the level (bounded by epsilon).", obs.TypeGauge,
			func(l LevelStats) float64 { return l.WasteFactor }},
		{"lsmssd_level_blocks_written_total", "Cumulative blocks written into the level.", obs.TypeCounter,
			func(l LevelStats) float64 { return float64(l.BlocksWritten) }},
		{"lsmssd_level_compactions_total", "Compactions of the level.", obs.TypeCounter,
			func(l LevelStats) float64 { return float64(l.Compactions) }},
	}
	for _, m := range perLevel {
		f := obs.Family{Name: m.name, Help: m.help, Type: m.typ}
		for _, l := range s.Levels {
			f.Samples = append(f.Samples, obs.Sample{Labels: levelLabel(l.Level), Value: m.value(l)})
		}
		fams = append(fams, f)
	}

	lf := obs.Family{
		Name: "lsmssd_op_duration_seconds",
		Help: "Operation latency (log-spaced buckets). Recorded only when Options.Metrics or MetricsAddr is set.",
		Type: obs.TypeHistogram,
	}
	if db.lat.Enabled() {
		for op := obs.Op(0); op < obs.NumOps; op++ {
			lf.Hists = append(lf.Hists, obs.HistSample{
				Labels: []obs.Label{{Name: "op", Value: op.String()}},
				Snap:   db.latHist(op),
				Scale:  1e-9,
			})
		}
	}
	fams = append(fams, lf)
	if db.lat.Enabled() && len(db.shards) > 1 {
		sf := obs.Family{
			Name: "lsmssd_shard_op_duration_seconds",
			Help: "Operation latency by owning shard (log-spaced buckets).",
			Type: obs.TypeHistogram,
		}
		for _, sh := range db.shards {
			for op := obs.Op(0); op < obs.NumOps; op++ {
				snap := sh.lat.Hist(op).Snapshot()
				if snap.Count == 0 {
					continue
				}
				sf.Hists = append(sf.Hists, obs.HistSample{
					Labels: []obs.Label{
						{Name: "shard", Value: strconv.Itoa(sh.id)},
						{Name: "op", Value: op.String()},
					},
					Snap:  snap,
					Scale: 1e-9,
				})
			}
		}
		fams = append(fams, sf)
	}
	if db.tracer.Enabled() {
		pf := obs.Family{
			Name: "lsmssd_phase_duration_seconds",
			Help: "Traced-operation time by engine phase, summed across shards (requires TraceSampleRate or SlowOpThreshold).",
			Type: obs.TypeHistogram,
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			var snap obs.HistSnapshot
			for i := range db.shards {
				snap.Merge(db.tracer.PhaseSnapshot(i)[p])
			}
			if snap.Count == 0 {
				continue
			}
			pf.Hists = append(pf.Hists, obs.HistSample{
				Labels: []obs.Label{{Name: "phase", Value: p.String()}},
				Snap:   snap,
				Scale:  1e-9,
			})
		}
		fams = append(fams, pf)
	}
	if latest := db.recorder.Latest(); len(latest) > 0 {
		shardLabel := func(n int) []obs.Label {
			return []obs.Label{{Name: "shard", Value: strconv.Itoa(n)}}
		}
		timeline := []struct {
			name, help string
			value      func(TimelineSample) float64
		}{
			{"lsmssd_timeline_ops_per_sec", "Operations per second over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return t.OpsPerSec }},
			{"lsmssd_timeline_put_p99_seconds", "Put p99 over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.PutP99NS) * 1e-9 }},
			{"lsmssd_timeline_get_p99_seconds", "Get p99 over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.GetP99NS) * 1e-9 }},
			{"lsmssd_timeline_stalls", "Write stalls during the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.Stalls) }},
			{"lsmssd_timeline_l0_blocks", "L0 size in blocks at the last flight-recorder tick.",
				func(t TimelineSample) float64 { return float64(t.L0Blocks) }},
			{"lsmssd_timeline_wal_sync_mean_seconds", "Mean WAL fsync latency over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return float64(t.WALSyncMeanNS) * 1e-9 }},
			{"lsmssd_timeline_cache_hit_rate", "Buffer-cache hit rate over the last flight-recorder interval.",
				func(t TimelineSample) float64 { return t.CacheHitRate }},
		}
		for _, m := range timeline {
			f := obs.Family{Name: m.name, Help: m.help, Type: obs.TypeGauge}
			for _, t := range latest {
				f.Samples = append(f.Samples, obs.Sample{Labels: shardLabel(t.Shard), Value: m.value(t)})
			}
			fams = append(fams, f)
		}
	}
	return fams
}

// debugLevelJSON is one storage level in the /debug/lsm dump.
type debugLevelJSON struct {
	Level          int     `json:"level"`
	Blocks         int     `json:"blocks"`
	Records        int     `json:"records"`
	CapacityBlocks int     `json:"capacity_blocks"`
	WasteFactor    float64 `json:"waste_factor"`
	BlocksWritten  int64   `json:"blocks_written"`
	Compactions    int64   `json:"compactions"`
}

// debugStateJSON is the /debug/lsm payload: per-level state plus the
// snapshot-machinery internals (live views, deferred frees) that Stats
// does not expose.
type debugStateJSON struct {
	Policy          string           `json:"policy"`
	Shards          int              `json:"shards"`
	Height          int              `json:"height"`
	Records         int              `json:"records"`
	MemtableRecords int              `json:"memtable_records"`
	BlocksWritten   int64            `json:"blocks_written"`
	BlocksRead      int64            `json:"blocks_read"`
	LiveBlocks      int64            `json:"live_blocks"`
	LiveViews       int              `json:"live_views"`
	DeferredFrees   int64            `json:"deferred_frees"`
	EventDrops      int64            `json:"event_drops"`
	CompactionMode  string           `json:"compaction_mode"`
	CompactionQueue int              `json:"compaction_queue_depth"`
	WriteStalls     int64            `json:"write_stalls"`
	Health          string           `json:"health"`
	Quarantined     int              `json:"quarantined_blocks"`
	ShardHealth     []ShardHealth    `json:"shard_health,omitempty"`
	WAL             *WALStats        `json:"wal,omitempty"`
	Levels          []debugLevelJSON `json:"levels"`
	Latencies       []LatencyStats   `json:"latencies,omitempty"`
}

func (db *DB) debugState() debugStateJSON {
	s := db.Stats()
	liveViews, deferredFrees := 0, int64(0)
	for _, sh := range db.shards {
		liveViews += sh.tree.LiveViews()
		deferredFrees += sh.tree.DeferredFrees()
	}
	d := debugStateJSON{
		Policy:          db.opts.MergePolicy.String(),
		Shards:          len(db.shards),
		Height:          s.Height,
		Records:         s.Records,
		MemtableRecords: s.MemtableRecords,
		BlocksWritten:   s.BlocksWritten,
		BlocksRead:      s.BlocksRead,
		LiveBlocks:      s.LiveBlocks,
		LiveViews:       liveViews,
		DeferredFrees:   deferredFrees,
		EventDrops:      db.bus.Drops(),
		CompactionMode:  s.Compaction.Mode,
		CompactionQueue: s.Compaction.QueueDepth,
		WriteStalls:     s.Compaction.Slowdowns + s.Compaction.Stops,
		Health:          s.Health,
		Quarantined:     s.Quarantined,
		Latencies:       s.Latencies,
	}
	hr := db.Health()
	if hr.State != health.Healthy.String() {
		d.ShardHealth = hr.Shards
	}
	if s.WAL.Enabled {
		w := s.WAL
		d.WAL = &w
	}
	for _, l := range s.Levels {
		d.Levels = append(d.Levels, debugLevelJSON{
			Level:          l.Level,
			Blocks:         l.Blocks,
			Records:        l.Records,
			CapacityBlocks: l.CapacityBlocks,
			WasteFactor:    l.WasteFactor,
			BlocksWritten:  l.BlocksWritten,
			Compactions:    l.Compactions,
		})
	}
	return d
}
