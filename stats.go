package lsmssd

import (
	"time"

	"lsmssd/internal/health"
	"lsmssd/internal/obs"
)

// Stats is a point-in-time accounting snapshot of a DB.
//
// BlocksWritten is the paper's primary cost metric: the number of data
// blocks written to the device since Open. On SSDs writes dominate cost and
// wear, so merge policies are compared by this number, typically normalized
// per megabyte of requests.
//
// The scalars live in the embedded Counters, declared once and shared with
// ShardStats. On a sharded DB (Options.Shards > 1) they aggregate across
// shards — everything sums except Height, which is the maximum — per-level
// rows with the same level number combine, and Shards carries the per-shard
// breakdown. With the default single shard the aggregate is exactly the one
// shard's, unchanged from the unsharded engine.
//
// Every counter (the metric table's rows typed counter), the per-level write
// series and Latencies count since Open and never decrease. A measurement
// window is the difference of two snapshots: read BlocksWritten (or any
// counter) before and after, and subtract. Cross-counter identities
// (per-level writes summing to BlocksWritten, hit rates, writes per request)
// hold for such differences as they do for the totals. Gauges (Height,
// Records, MemtableRecords, LiveBlocks, Quarantined, the compaction queue,
// WAL segments and sequence, per-level shapes) describe the present;
// WAL.Recovery is what Open's replay did.
type Stats struct {
	Counters

	// WAL reports the DB's write-ahead log: its traffic and the recovery
	// Open performed, if any. There is one log for all shards, so it is
	// reported here once, not per shard. Zero value for an in-memory store,
	// which has no log.
	WAL WALStats `json:"wal"`

	// Levels has one row per storage level, combined across shards.
	Levels []LevelStats `json:"levels"`

	// Latencies summarizes the per-operation latency histograms, one entry
	// per operation that recorded at least one observation. Empty unless
	// Options.Metrics (or MetricsAddr, which implies it) enabled latency
	// recording. Point operations are timed against the owning shard —
	// each entry here merges the per-shard histograms, and Shards carries
	// the per-shard breakdown — while multi-shard ops (Scan) are timed
	// once at the router.
	Latencies []LatencyStats `json:"latencies,omitempty"`

	// Health is the worst shard's fault-domain state ("healthy",
	// "degraded", "read-only", "failed"); DB.Health has the full
	// per-shard report.
	Health string `json:"health"`

	// Shards holds the per-shard breakdown, one entry per shard in shard
	// order — always populated, a single entry for an unsharded DB.
	Shards []ShardStats `json:"per_shard"`
}

// ShardStats is one shard's share of the Stats snapshot: the same
// Counters and structure as the aggregate, scoped to the shard's own
// tree, device and scheduler. The write-ahead log is the DB's, shared by
// every shard, so it is in Stats.WAL only.
type ShardStats struct {
	Shard int `json:"shard"` // shard index; keys route here when key & (Shards-1) == Shard

	Counters

	Levels []LevelStats `json:"levels"`

	// Latencies summarizes this shard's per-operation histograms (point
	// ops routed here, plus the shard's own merge/stall/WAL series).
	// Empty unless Options.Metrics enabled latency recording.
	Latencies []LatencyStats `json:"latencies,omitempty"`

	// Health is this shard's fault-domain state; HealthCause tags the
	// last transition ("" while healthy since Open). See DB.Health for
	// the quarantined-block details.
	Health      string `json:"health"`
	HealthCause string `json:"health_cause,omitempty"`
}

// Counters is every scalar of a Stats snapshot, declared once: Stats and
// ShardStats both embed it, so s.BlocksWritten reads the same field on
// either, and metricTable gives each field its /metrics families. The JSON
// names are the keys /debug/lsm serves.
type Counters struct {
	// Device traffic.
	BlocksWritten int64 `json:"blocks_written"`
	BlocksRead    int64 `json:"blocks_read"`
	LiveBlocks    int64 `json:"live_blocks"`

	// Request accounting.
	Requests     int64 `json:"requests"`
	Inserts      int64 `json:"inserts"`
	Deletes      int64 `json:"deletes"`
	Lookups      int64 `json:"lookups"`
	Scans        int64 `json:"scans"`
	RequestBytes int64 `json:"request_bytes"`

	// Structure.
	Height          int `json:"height"`  // including the memtable level; the tallest shard's in the aggregate
	Records         int `json:"records"` // records stored, including shadowed versions and tombstones
	MemtableRecords int `json:"memtable_records"`

	// Merge accounting.
	Merges     int64 `json:"merges"`
	FullMerges int64 `json:"full_merges"`

	// Cache and Bloom effectiveness (zero when the feature is off).
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	BloomSkipped int64 `json:"bloom_skipped"`
	BloomPassed  int64 `json:"bloom_passed"`

	// Compaction reports the merge schedulers' state and write-stall
	// accounting.
	Compaction CompactionStats `json:"compaction"`

	// Checkpoints counts completed checkpoints (manifest made durable, WAL
	// segments and freed block slots reclaimed); CheckpointTime is their
	// cumulative capture-plus-persist time, nearly all of it off the write
	// path.
	Checkpoints    int64         `json:"checkpoints"`
	CheckpointTime time.Duration `json:"checkpoint_time"`
	// ManifestBytes counts the manifest bytes those checkpoints wrote: a
	// checkpoint's device traffic beside the data blocks BlocksWritten
	// counts.
	ManifestBytes int64 `json:"manifest_bytes"`

	// Quarantined counts corrupt blocks currently quarantined.
	Quarantined int `json:"quarantined_blocks"`
	// RetriedReads counts device reads that needed at least one retry;
	// RetriesExhausted counts reads that failed even after the full
	// backoff schedule (each demotes the shard to Degraded).
	RetriedReads     int64 `json:"retried_reads"`
	RetriesExhausted int64 `json:"retries_exhausted"`
	// Scrub accounting (zero unless Options.ScrubInterval is set):
	// passes completed, blocks verified, corruption found, and blocks
	// repaired from a surviving cached copy.
	ScrubPasses   int64 `json:"scrub_passes"`
	ScrubChecked  int64 `json:"scrub_checked"`
	ScrubCorrupt  int64 `json:"scrub_corrupt"`
	ScrubRepaired int64 `json:"scrub_repaired"`
}

// WALStats describes the write-ahead log (see Options.WAL).
type WALStats struct {
	Appends   int64         // frames appended (one per Put, Delete or Apply)
	Ops       int64         // operations inside appended frames
	Bytes     int64         // frame bytes written, headers included
	Syncs     int64         // fsyncs issued (one may cover many concurrent writers' frames)
	SyncTime  time.Duration // cumulative wall time inside those fsyncs
	FillBytes int64         // zeros written ahead of the append offset, so a commit overwrites written blocks
	Rotations int64         // segments sealed (each wakes the checkpointer; a shard checkpoints every Shards of them)
	Segments  int           // segment files currently on disk
	LastSeq   uint64        // sequence of the newest logged frame

	// Recovery is what Open's replay did for this DB instance; it never
	// changes afterwards.
	Recovery WALRecoveryStats
}

// WALRecoveryStats summarizes the crash recovery Open performed: the WAL
// frames it replayed over the checkpoint manifests and any torn tail it
// truncated. Recovered is false when the log was already empty beyond
// every shard's checkpoint (a clean shutdown).
type WALRecoveryStats struct {
	Recovered bool
	Segments  int   // segment files scanned
	Frames    int   // frames replayed
	Ops       int   // operations re-applied
	TornBytes int64 // bytes truncated from the torn tail
}

// CompactionStats describes the compaction scheduler (see DB); on a
// sharded DB the counters sum over the per-shard schedulers. A shard's
// writes pace from an L0 of 2×MemtableBlocks blocks and stop from
// 4×MemtableBlocks.
type CompactionStats struct {
	// QueueDepth counts overflowing merge sources awaiting background work,
	// plus one per shard due a checkpoint (sealed WAL segments made it due,
	// shard.due) or whose due checkpoint the checkpointer is running — so
	// QueueDepth == 0 means drained and checkpointed: the sealed segments
	// are covered and removed. A DB.Checkpoint's own runs are not counted:
	// its caller waits for them. Waiting for QueueDepth == 0 after every
	// write reproduces the paper's inline merge sequence.
	QueueDepth int
	L0Blocks   int   // L0 size at the last scheduler refresh, in blocks
	Steps      int64 // cascade steps executed by the background scheduler
	Slowdowns  int64 // writes that paid the 1 ms pacing sleep
	Stops      int64 // writes that blocked on the hard gate
	// SlowdownTime and StopTime are the cumulative durations writes spent
	// in each kind of stall.
	SlowdownTime time.Duration
	StopTime     time.Duration
}

// LatencyStats summarizes one operation's latency histogram since Open.
// Quantiles are upper bounds from log-spaced
// buckets (within a factor of two of the true value).
type LatencyStats struct {
	Op    string // "get", "put", "delete", "scan", "merge"
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// LevelStats describes one storage level. In the aggregate view, rows
// with the same level number across shards combine: counts sum,
// WasteFactor is the block-weighted mean, and Runs is the maximum across
// shards (the read fan-out a point lookup can face at this level).
type LevelStats struct {
	Level          int     `json:"level"` // 1-based level number
	Runs           int     `json:"runs"`  // sorted runs in the level (always 1 under Leveling)
	Blocks         int     `json:"blocks"`
	Records        int     `json:"records"`
	CapacityBlocks int     `json:"capacity_blocks"`
	WasteFactor    float64 `json:"waste_factor"`
	BlocksWritten  int64   `json:"blocks_written"` // cumulative writes into this level
	Compactions    int64   `json:"compactions"`
}

// metricType is how a table row behaves over time, and its Prometheus type.
type metricType int

const (
	counter metricType = iota // cumulative since Open; never decreases
	gauge                     // describes the present
)

// metric is one row of a metric table: a field of S — Counters, or the
// log's WALStats — and the names it is scraped under.
type metric[S any] struct {
	typ  metricType
	name string // aggregate family; shard i's sample goes to lsmssd_shard_X for lsmssd_X
	help string
	field[S]
	kind      string // the sample's "kind" label, if any; consecutive rows with one name are one family
	shardHelp string // replaces "Per shard: "+help where that would read wrongly
}

// field is a row's access to its field of S: get reads it as a sample, add
// folds another shard's value into c's. Built by num or secs from one
// pointer-returning accessor, so a row names its field once.
type field[S any] struct {
	get func(c *S) float64
	add func(c, o *S)
}

func num[S any, T int | int64 | uint64](p func(*S) *T) field[S] {
	return field[S]{func(c *S) float64 { return float64(*p(c)) }, func(c, o *S) { *p(c) += *p(o) }}
}

// secs is num for a duration, sampled in seconds.
func secs[S any](p func(*S) *time.Duration) field[S] {
	return field[S]{func(c *S) float64 { return p(c).Seconds() }, func(c, o *S) { *p(c) += *p(o) }}
}

// metricTable is the one list of the engine's per-shard counters. DB.Stats
// sums the shards over it, /metrics renders an aggregate family for every
// row and a shard-labelled one when Shards > 1, its typ column says which
// rows never decrease, and /debug/lsm serves the same Counters as JSON. A new
// counter is its source read in shard.stats, one Counters field and one row
// here. The DB's one log has walTable.
var metricTable = []metric[Counters]{
	{typ: counter, name: "lsmssd_blocks_written_total", help: "Data blocks written to the device (the paper's cost metric).", shardHelp: "Data blocks written by the shard's tree.", field: num(func(c *Counters) *int64 { return &c.BlocksWritten })},
	{typ: counter, name: "lsmssd_blocks_read_total", help: "Data blocks read from the device (cache misses only when caching is on).", field: num(func(c *Counters) *int64 { return &c.BlocksRead })},
	{typ: gauge, name: "lsmssd_live_blocks", help: "Device blocks currently allocated.", field: num(func(c *Counters) *int64 { return &c.LiveBlocks })},
	{typ: counter, name: "lsmssd_requests_total", help: "Modification requests processed (inserts plus deletes).", shardHelp: "Modification requests routed to the shard.", field: num(func(c *Counters) *int64 { return &c.Requests })},
	{typ: counter, name: "lsmssd_inserts_total", help: "Insert/update requests processed.", field: num(func(c *Counters) *int64 { return &c.Inserts })},
	{typ: counter, name: "lsmssd_deletes_total", help: "Delete requests processed.", field: num(func(c *Counters) *int64 { return &c.Deletes })},
	{typ: counter, name: "lsmssd_lookups_total", help: "Point lookups served.", field: num(func(c *Counters) *int64 { return &c.Lookups })},
	{typ: counter, name: "lsmssd_scans_total", help: "Range scans started.", field: num(func(c *Counters) *int64 { return &c.Scans })},
	{typ: counter, name: "lsmssd_request_bytes_total", help: "Key+payload bytes of modifications processed.", field: num(func(c *Counters) *int64 { return &c.RequestBytes })},
	{typ: gauge, name: "lsmssd_height", help: "Tree height including the memtable level.", shardHelp: "Shard tree height including the memtable level.", field: num(func(c *Counters) *int { return &c.Height })},
	{typ: gauge, name: "lsmssd_records", help: "Records stored, including shadowed versions and tombstones.", shardHelp: "Records stored in the shard, including shadowed versions and tombstones.", field: num(func(c *Counters) *int { return &c.Records })},
	{typ: gauge, name: "lsmssd_memtable_records", help: "Records currently in the memtable (L0).", field: num(func(c *Counters) *int { return &c.MemtableRecords })},
	{typ: counter, name: "lsmssd_merges_total", help: "Merges executed.", field: num(func(c *Counters) *int64 { return &c.Merges })},
	{typ: counter, name: "lsmssd_full_merges_total", help: "Merges that took a whole source level.", field: num(func(c *Counters) *int64 { return &c.FullMerges })},
	{typ: counter, name: "lsmssd_cache_hits_total", help: "Buffer-cache hits.", field: num(func(c *Counters) *int64 { return &c.CacheHits })},
	{typ: counter, name: "lsmssd_cache_misses_total", help: "Buffer-cache misses.", field: num(func(c *Counters) *int64 { return &c.CacheMisses })},
	{typ: counter, name: "lsmssd_bloom_skipped_total", help: "Block reads avoided by Bloom filters.", field: num(func(c *Counters) *int64 { return &c.BloomSkipped })},
	{typ: counter, name: "lsmssd_bloom_passed_total", help: "Lookups Bloom filters could not rule out.", field: num(func(c *Counters) *int64 { return &c.BloomPassed })},

	{typ: gauge, name: "lsmssd_compaction_queue_depth", help: "Overflowing merge sources (memtable and full levels) awaiting compaction, plus one per shard with a due or running background checkpoint.", field: num(func(c *Counters) *int { return &c.Compaction.QueueDepth })},
	{typ: gauge, name: "lsmssd_compaction_l0_blocks", help: "L0 size in blocks at the compaction schedulers' last refresh.", field: num(func(c *Counters) *int { return &c.Compaction.L0Blocks })},
	{typ: counter, name: "lsmssd_compaction_steps_total", help: "Cascade steps executed by the background compaction schedulers.", field: num(func(c *Counters) *int64 { return &c.Compaction.Steps })},
	{typ: counter, name: "lsmssd_write_stalls_total", help: "Writes that hit compaction backpressure, by kind (slowdown = pacing sleep, stop = hard gate).", kind: "slowdown", field: num(func(c *Counters) *int64 { return &c.Compaction.Slowdowns })},
	{typ: counter, name: "lsmssd_write_stalls_total", kind: "stop", field: num(func(c *Counters) *int64 { return &c.Compaction.Stops })},
	{typ: counter, name: "lsmssd_write_stall_seconds_total", help: "Cumulative time writes spent stalled, by kind.", kind: "slowdown", field: secs(func(c *Counters) *time.Duration { return &c.Compaction.SlowdownTime })},
	{typ: counter, name: "lsmssd_write_stall_seconds_total", kind: "stop", field: secs(func(c *Counters) *time.Duration { return &c.Compaction.StopTime })},

	{typ: counter, name: "lsmssd_checkpoints_total", help: "Checkpoints completed.", field: num(func(c *Counters) *int64 { return &c.Checkpoints })},
	{typ: counter, name: "lsmssd_checkpoint_seconds_total", help: "Cumulative capture-plus-persist time of completed checkpoints.", field: secs(func(c *Counters) *time.Duration { return &c.CheckpointTime })},
	{typ: counter, name: "lsmssd_manifest_bytes_total", help: "Manifest bytes written by completed checkpoints.", field: num(func(c *Counters) *int64 { return &c.ManifestBytes })},
	{typ: gauge, name: "lsmssd_quarantined_blocks", help: "Corrupt blocks currently quarantined (pinned, excluded from merges) across all shards.", shardHelp: "Corrupt blocks the shard currently has quarantined (pinned, excluded from merges).", field: num(func(c *Counters) *int { return &c.Quarantined })},
	{typ: counter, name: "lsmssd_read_retries_total", help: "Device reads that needed at least one retry.", field: num(func(c *Counters) *int64 { return &c.RetriedReads })},
	{typ: counter, name: "lsmssd_read_retries_exhausted_total", help: "Device reads that failed even after the full backoff schedule.", field: num(func(c *Counters) *int64 { return &c.RetriesExhausted })},
	{typ: counter, name: "lsmssd_scrub_passes_total", help: "Scrub passes completed.", field: num(func(c *Counters) *int64 { return &c.ScrubPasses })},
	{typ: counter, name: "lsmssd_scrub_checked_total", help: "Blocks verified by the scrubber.", field: num(func(c *Counters) *int64 { return &c.ScrubChecked })},
	{typ: counter, name: "lsmssd_scrub_corrupt_total", help: "Corrupt blocks the scrubber found.", field: num(func(c *Counters) *int64 { return &c.ScrubCorrupt })},
	{typ: counter, name: "lsmssd_scrub_repaired_total", help: "Corrupt blocks the scrubber repaired from a surviving cached copy.", field: num(func(c *Counters) *int64 { return &c.ScrubRepaired })},
}

// walTable is metricTable for the DB's one log: its rows read Stats.WAL,
// and /metrics renders them for the whole store only.
var walTable = []metric[WALStats]{
	{typ: counter, name: "lsmssd_wal_appends_total", help: "WAL frames appended (one per Put/Delete/Apply).", field: num(func(w *WALStats) *int64 { return &w.Appends })},
	{typ: counter, name: "lsmssd_wal_ops_total", help: "Operations inside appended WAL frames.", field: num(func(w *WALStats) *int64 { return &w.Ops })},
	{typ: counter, name: "lsmssd_wal_bytes_total", help: "WAL frame bytes written, headers included.", field: num(func(w *WALStats) *int64 { return &w.Bytes })},
	{typ: counter, name: "lsmssd_wal_syncs_total", help: "WAL fsyncs issued by the sync policy or checkpoints.", field: num(func(w *WALStats) *int64 { return &w.Syncs })},
	{typ: counter, name: "lsmssd_wal_sync_seconds_total", help: "Cumulative time spent inside WAL fsyncs.", field: secs(func(w *WALStats) *time.Duration { return &w.SyncTime })},
	{typ: counter, name: "lsmssd_wal_fill_bytes_total", help: "Zero bytes written ahead of the WAL's append offset, so commits overwrite allocated blocks.", field: num(func(w *WALStats) *int64 { return &w.FillBytes })},
	{typ: counter, name: "lsmssd_wal_rotations_total", help: "WAL segments sealed.", field: num(func(w *WALStats) *int64 { return &w.Rotations })},
	{typ: gauge, name: "lsmssd_wal_segments", help: "WAL segment files currently on disk.", field: num(func(w *WALStats) *int { return &w.Segments })},
	{typ: gauge, name: "lsmssd_wal_last_seq", help: "Sequence of the newest logged frame.", field: num(func(w *WALStats) *uint64 { return &w.LastSeq })},
	{typ: counter, name: "lsmssd_wal_recovered_segments_total", help: "WAL segment files scanned by crash recovery at Open.", field: num(func(w *WALStats) *int { return &w.Recovery.Segments })},
	{typ: counter, name: "lsmssd_wal_recovered_frames_total", help: "WAL frames replayed by crash recovery at Open.", field: num(func(w *WALStats) *int { return &w.Recovery.Frames })},
	{typ: counter, name: "lsmssd_wal_recovered_ops_total", help: "Operations re-applied by crash recovery at Open.", field: num(func(w *WALStats) *int { return &w.Recovery.Ops })},
	{typ: counter, name: "lsmssd_wal_recovered_torn_bytes_total", help: "Bytes truncated from the WAL's torn tail at Open.", field: num(func(w *WALStats) *int64 { return &w.Recovery.TornBytes })},
}

// add folds another shard's counters into c: every row sums, except that
// Height is the maximum.
func (c *Counters) add(o *Counters) {
	height := max(c.Height, o.Height)
	for i := range metricTable {
		metricTable[i].add(c, o)
	}
	c.Height = height
}

// Stats returns the current snapshot. It is lock-free: counters are read
// from atomics and the structural fields from the current per-shard read
// snapshots, so Stats can be polled while writers and merges run. On a
// closed DB it returns the zero Stats.
func (db *DB) Stats() Stats {
	per := make([]ShardStats, len(db.shards))
	worst := health.Healthy
	for i, sh := range db.shards {
		var ok bool
		if per[i], ok = sh.stats(); !ok {
			return Stats{}
		}
		worst = max(worst, sh.health.State())
	}
	s := Stats{Counters: per[0].Counters, Shards: per, Health: worst.String()}
	for i := range per[1:] {
		s.Counters.add(&per[i+1].Counters)
	}
	s.WAL = db.walStats()
	s.Levels = mergeLevels(per)
	s.Latencies = latencyRows(db.lat, db.shards)
	return s
}

// mergeLevels combines the per-shard level rows by level number: counts
// sum, Runs is the maximum, WasteFactor is the block-weighted mean (0 for a
// level that is empty everywhere, as for one empty level). For one shard
// this reproduces its rows exactly.
func mergeLevels(per []ShardStats) []LevelStats {
	maxLevel := 0
	for i := range per {
		for _, lv := range per[i].Levels {
			maxLevel = max(maxLevel, lv.Level)
		}
	}
	if maxLevel == 0 {
		return nil
	}
	out := make([]LevelStats, maxLevel)
	for i := range out {
		out[i].Level = i + 1
	}
	for i := range per {
		for _, lv := range per[i].Levels {
			row := &out[lv.Level-1]
			row.Runs = max(row.Runs, lv.Runs)
			row.Blocks += lv.Blocks
			row.Records += lv.Records
			row.CapacityBlocks += lv.CapacityBlocks
			row.BlocksWritten += lv.BlocksWritten
			row.Compactions += lv.Compactions
			row.WasteFactor += lv.WasteFactor * float64(lv.Blocks)
		}
	}
	for i := range out {
		if out[i].Blocks > 0 {
			out[i].WasteFactor /= float64(out[i].Blocks)
		}
	}
	return out
}

// stats gathers one shard's snapshot; ok is false if the DB closed. This is
// the one place the counters' sources are read.
func (s *shard) stats() (ShardStats, bool) {
	v, err := s.acquireView()
	if err != nil {
		return ShardStats{}, false
	}
	defer v.Release()
	ts := s.tree.Stats()
	dc := s.tree.Device().Counters()
	rs := s.rdev.RetryStats()
	ss := ShardStats{Shard: s.id, Health: s.health.State().String(), Counters: Counters{
		BlocksWritten:    dc.Writes,
		BlocksRead:       dc.Reads,
		LiveBlocks:       dc.Live,
		Requests:         ts.Requests,
		Inserts:          ts.Inserts,
		Deletes:          ts.Deletes,
		Lookups:          ts.Lookups,
		Scans:            ts.Scans,
		RequestBytes:     ts.RequestBytes,
		Height:           v.Height(),
		Records:          v.Records(),
		MemtableRecords:  v.MemLen(),
		Merges:           ts.Merges,
		FullMerges:       ts.FullMerges,
		Compaction:       CompactionStats(s.sched.Snapshot()),
		Checkpoints:      s.ckpts.Load(),
		CheckpointTime:   time.Duration(s.ckptNanos.Load()),
		ManifestBytes:    s.manifestBytes.Load(),
		Quarantined:      s.tree.QuarantinedCount(),
		RetriedReads:     rs.Retries,
		RetriesExhausted: rs.Exhausted,
		ScrubPasses:      s.scrubPasses.Load(),
		ScrubChecked:     s.scrubChecked.Load(),
		ScrubCorrupt:     s.scrubCorrupt.Load(),
		ScrubRepaired:    s.scrubRepaired.Load(),
	}}
	if s.checkpointOwed() {
		ss.Compaction.QueueDepth++
	}
	ss.HealthCause, _ = s.health.Cause()
	levels := v.Levels()
	ss.Levels = make([]LevelStats, 0, len(levels))
	for _, lv := range levels {
		ss.Levels = append(ss.Levels, LevelStats{
			Level:          lv.Number,
			Runs:           len(lv.Runs),
			Blocks:         lv.Blocks(),
			Records:        lv.Records,
			CapacityBlocks: lv.Capacity,
			WasteFactor:    lv.WasteFactor,
			BlocksWritten:  lv.BlocksWritten,
			Compactions:    lv.Compactions,
		})
	}
	if c := s.tree.Cache(); c != nil {
		st := c.Stats()
		ss.CacheHits, ss.CacheMisses = st.Hits, st.Misses
	}
	if b := s.tree.Blooms(); b != nil {
		ss.BloomSkipped, ss.BloomPassed = b.Counts()
	}
	ss.Latencies = latencyRows(s.lat, nil)
	return ss, true
}

// walStats reads the DB's log; the zero value when it has none.
func (db *DB) walStats() WALStats {
	log := db.wal.Load()
	if log == nil {
		return WALStats{}
	}
	ws := log.Stats()
	return WALStats{
		Appends:   ws.Appends,
		Ops:       ws.Ops,
		Bytes:     ws.Bytes,
		Syncs:     ws.Syncs,
		SyncTime:  time.Duration(ws.SyncNanos),
		FillBytes: ws.FillBytes,
		Rotations: ws.Rotations,
		Segments:  ws.Segments,
		LastSeq:   ws.NextSeq - 1,
		Recovery:  db.recovery,
	}
}

// latencyRows summarizes set's histograms — merged, for the DB-wide view,
// with those of shards — one row per op that has observations; nil when set
// is not recording.
func latencyRows(set *obs.LatencySet, shards []*shard) []LatencyStats {
	if !set.Enabled() {
		return nil
	}
	out := make([]LatencyStats, 0, obs.NumOps)
	for op := obs.Op(0); op < obs.NumOps; op++ {
		snap := set.Hist(op).Snapshot()
		for _, s := range shards {
			snap.Merge(s.lat.Hist(op).Snapshot())
		}
		if snap.Count > 0 {
			out = append(out, LatencyStats{
				Op:    op.String(),
				Count: snap.Count,
				Mean:  snap.Mean(),
				P50:   snap.Quantile(0.50),
				P95:   snap.Quantile(0.95),
				P99:   snap.Quantile(0.99),
				Max:   snap.Max(),
			})
		}
	}
	return out
}
