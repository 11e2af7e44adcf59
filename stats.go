package lsmssd

import (
	"time"

	"lsmssd/internal/health"
	"lsmssd/internal/obs"
)

// Stats is a point-in-time accounting snapshot of a DB.
//
// BlocksWritten is the paper's primary cost metric: the number of data
// blocks written to the device since Open (or the last ResetIOStats). On
// SSDs writes dominate cost and wear, so merge policies are compared by
// this number, typically normalized per megabyte of requests.
//
// On a sharded DB (Options.Shards > 1) the top-level fields aggregate
// across shards — counters sum, Height is the maximum, per-level rows
// with the same level number combine — and Shards carries the per-shard
// breakdown. With the default single shard the aggregate fields are
// exactly the one shard's, unchanged from the unsharded engine.
//
// Reset semantics: every cumulative counter in Stats — device traffic,
// request accounting, merge counts, the per-level write series, cache and
// Bloom statistics, and Latencies — covers the same window, from Open or
// the last ResetIOStats to now. ResetIOStats zeroes them all together, so
// cross-counter identities (per-level writes summing to BlocksWritten,
// hit rates, writes per request) hold within any window. Structural
// fields (Height, Records, MemtableRecords, LiveBlocks, per-level shapes)
// describe the present and are never reset.
type Stats struct {
	// Device traffic.
	BlocksWritten int64
	BlocksRead    int64
	LiveBlocks    int64

	// Request accounting.
	Requests     int64
	Inserts      int64
	Deletes      int64
	Lookups      int64
	Scans        int64
	RequestBytes int64

	// Structure.
	Height          int // tallest shard's height
	Records         int // records stored, including shadowed versions and tombstones
	MemtableRecords int

	// Merge accounting.
	Merges     int64
	FullMerges int64
	Levels     []LevelStats

	// Cache and Bloom effectiveness (zero when the feature is off).
	CacheHits    int64
	CacheMisses  int64
	BloomSkipped int64
	BloomPassed  int64

	// Latencies summarizes the per-operation latency histograms, one entry
	// per operation that recorded at least one observation. Empty unless
	// Options.Metrics (or MetricsAddr, which implies it) enabled latency
	// recording. Point operations are timed against the owning shard —
	// each entry here merges the per-shard histograms, and Shards carries
	// the per-shard breakdown — while multi-shard ops (Scan) are timed
	// once at the router.
	Latencies []LatencyStats

	// Compaction reports the merge schedulers' state and write-stall
	// accounting, summed across shards; its counters participate in the
	// uniform reset window.
	Compaction CompactionStats

	// WAL reports write-ahead log traffic and the recovery Open performed,
	// if any, summed across shards; LastSeq is the sum of the per-shard
	// sequences (the total number of frames ever logged). Zero value when
	// Options.WAL is disabled. The traffic counters (Appends through
	// Rotations) participate in the uniform reset window; Segments,
	// LastSeq, and Recovery describe the present.
	WAL WALStats

	// Health is the worst shard's fault-domain state ("healthy",
	// "degraded", "read-only", "failed"); DB.Health has the full
	// per-shard report. Quarantined counts corrupt blocks currently
	// quarantined across all shards.
	Health      string
	Quarantined int

	// Shards holds the per-shard breakdown, one entry per shard in shard
	// order — always populated, a single entry for an unsharded DB.
	Shards []ShardStats
}

// ShardStats is one shard's share of the Stats snapshot: the same
// counters and structure as the aggregate, scoped to the shard's own
// tree, device, scheduler, and write-ahead log.
type ShardStats struct {
	Shard int // shard index; keys route here when key & (Shards-1) == Shard

	BlocksWritten int64
	BlocksRead    int64
	LiveBlocks    int64

	Requests     int64
	Inserts      int64
	Deletes      int64
	Lookups      int64
	Scans        int64
	RequestBytes int64

	Height          int
	Records         int
	MemtableRecords int

	Merges     int64
	FullMerges int64
	Levels     []LevelStats

	CacheHits    int64
	CacheMisses  int64
	BloomSkipped int64
	BloomPassed  int64

	// Latencies summarizes this shard's per-operation histograms (point
	// ops routed here, plus the shard's own merge/stall/WAL series).
	// Empty unless Options.Metrics enabled latency recording.
	Latencies []LatencyStats

	Compaction CompactionStats
	WAL        WALStats

	// Health is this shard's fault-domain state; HealthCause tags the
	// last transition ("" while healthy since Open). See DB.Health for
	// the quarantined-block details.
	Health      string
	HealthCause string
	// Quarantined counts this shard's quarantined corrupt blocks.
	Quarantined int
	// RetriedReads counts device reads that needed at least one retry;
	// RetriesExhausted counts reads that failed even after the full
	// backoff schedule (each demotes the shard to Degraded).
	RetriedReads     int64
	RetriesExhausted int64
	// Scrub accounting (zero unless Options.ScrubInterval is set):
	// passes completed, blocks verified, corruption found, and blocks
	// repaired from a surviving cached copy.
	ScrubPasses   int64
	ScrubChecked  int64
	ScrubCorrupt  int64
	ScrubRepaired int64
}

// WALStats describes the write-ahead log (see Options.WAL).
type WALStats struct {
	Enabled   bool
	Appends   int64  // frames appended (one per Put/Delete, one per touched shard per Apply)
	Ops       int64  // operations inside appended frames
	Bytes     int64  // frame bytes written, headers included
	Syncs     int64  // fsyncs issued by the sync policy or Checkpoint
	Rotations int64  // segments sealed (each triggers a checkpoint)
	Segments  int    // segment files currently on disk
	LastSeq   uint64 // sequence of the newest logged frame (summed across shards)

	// Recovery is what Open's replay did for this DB instance; it never
	// changes afterwards and does not reset.
	Recovery WALRecoveryStats
}

// WALRecoveryStats summarizes the crash recovery Open performed: the WAL
// frames it replayed over the checkpoint manifests and any torn tails it
// truncated. Recovered is false when every shard's log was already empty
// beyond its checkpoint (a clean shutdown).
type WALRecoveryStats struct {
	Recovered bool
	Segments  int   // segment files scanned
	Frames    int   // frames replayed
	Ops       int   // operations re-applied
	TornBytes int64 // bytes truncated from the torn tail
}

// CompactionStats describes the compaction scheduler (see
// Options.CompactionMode); on a sharded DB the counters sum over the
// per-shard schedulers. In sync mode only Mode is meaningful: the cascade
// completes inside each mutating call, so the queue is always empty and
// no write ever stalls.
type CompactionStats struct {
	Mode string // "sync" or "background"
	// QueueDepth counts overflowing merge sources awaiting background work,
	// plus one per shard whose background checkpoint (requested when a WAL
	// segment is sealed) has not finished — so QueueDepth == 0 means drained
	// and checkpointed: the sealed segment is covered and removed.
	QueueDepth int
	L0Blocks   int   // L0 size at the last scheduler refresh, in blocks
	Steps      int64 // cascade steps executed by the background scheduler
	Slowdowns  int64 // writes that paid the pacing sleep (SlowdownTrigger)
	Stops      int64 // writes that blocked on the hard gate (StopTrigger)
	// SlowdownTime and StopTime are the cumulative durations writes spent
	// in each kind of stall.
	SlowdownTime time.Duration
	StopTime     time.Duration
}

// LatencyStats summarizes one operation's latency histogram over the
// current measurement window. Quantiles are upper bounds from log-spaced
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
	Level          int // 1-based level number
	Runs           int // sorted runs in the level (always 1 under Leveling)
	Blocks         int
	Records        int
	CapacityBlocks int
	WasteFactor    float64
	BlocksWritten  int64 // cumulative writes into this level
	Compactions    int64
}

// Stats returns the current snapshot. It is lock-free: counters are read
// from atomics and the structural fields from the current per-shard read
// snapshots, so Stats can be polled while writers and merges run. On a
// closed DB it returns the zero Stats.
func (db *DB) Stats() Stats {
	per := make([]ShardStats, 0, len(db.shards))
	for _, sh := range db.shards {
		ss, ok := sh.stats()
		if !ok {
			return Stats{}
		}
		per = append(per, ss)
	}

	s := Stats{Shards: per}
	for _, ss := range per {
		s.BlocksWritten += ss.BlocksWritten
		s.BlocksRead += ss.BlocksRead
		s.LiveBlocks += ss.LiveBlocks
		s.Requests += ss.Requests
		s.Inserts += ss.Inserts
		s.Deletes += ss.Deletes
		s.Lookups += ss.Lookups
		s.Scans += ss.Scans
		s.RequestBytes += ss.RequestBytes
		if ss.Height > s.Height {
			s.Height = ss.Height
		}
		s.Records += ss.Records
		s.MemtableRecords += ss.MemtableRecords
		s.Merges += ss.Merges
		s.FullMerges += ss.FullMerges
		s.CacheHits += ss.CacheHits
		s.CacheMisses += ss.CacheMisses
		s.BloomSkipped += ss.BloomSkipped
		s.BloomPassed += ss.BloomPassed

		s.Compaction.QueueDepth += ss.Compaction.QueueDepth
		s.Compaction.L0Blocks += ss.Compaction.L0Blocks
		s.Compaction.Steps += ss.Compaction.Steps
		s.Compaction.Slowdowns += ss.Compaction.Slowdowns
		s.Compaction.Stops += ss.Compaction.Stops
		s.Compaction.SlowdownTime += ss.Compaction.SlowdownTime
		s.Compaction.StopTime += ss.Compaction.StopTime

		if ss.WAL.Enabled {
			s.WAL.Enabled = true
			s.WAL.Appends += ss.WAL.Appends
			s.WAL.Ops += ss.WAL.Ops
			s.WAL.Bytes += ss.WAL.Bytes
			s.WAL.Syncs += ss.WAL.Syncs
			s.WAL.Rotations += ss.WAL.Rotations
			s.WAL.Segments += ss.WAL.Segments
			s.WAL.LastSeq += ss.WAL.LastSeq
			s.WAL.Recovery.Recovered = s.WAL.Recovery.Recovered || ss.WAL.Recovery.Recovered
			s.WAL.Recovery.Segments += ss.WAL.Recovery.Segments
			s.WAL.Recovery.Frames += ss.WAL.Recovery.Frames
			s.WAL.Recovery.Ops += ss.WAL.Recovery.Ops
			s.WAL.Recovery.TornBytes += ss.WAL.Recovery.TornBytes
		}
	}
	s.Compaction.Mode = per[0].Compaction.Mode
	s.Levels = mergeLevels(per)
	s.Latencies = db.latencyStats()
	worst := health.Healthy
	for _, sh := range db.shards {
		if st := sh.health.State(); st > worst {
			worst = st
		}
	}
	s.Health = worst.String()
	for _, ss := range per {
		s.Quarantined += ss.Quarantined
	}
	return s
}

// mergeLevels combines the per-shard level rows by level number: counts
// sum, WasteFactor is the block-weighted mean (plain mean when the level
// is empty everywhere). For one shard this reproduces its rows exactly.
func mergeLevels(per []ShardStats) []LevelStats {
	maxLevel := 0
	for _, ss := range per {
		for _, lv := range ss.Levels {
			if lv.Level > maxLevel {
				maxLevel = lv.Level
			}
		}
	}
	if maxLevel == 0 {
		return nil
	}
	out := make([]LevelStats, maxLevel)
	wasteBlocks := make([]float64, maxLevel)
	wasteSum := make([]float64, maxLevel)
	wasteN := make([]int, maxLevel)
	for _, ss := range per {
		for _, lv := range ss.Levels {
			row := &out[lv.Level-1]
			row.Level = lv.Level
			if lv.Runs > row.Runs {
				row.Runs = lv.Runs
			}
			row.Blocks += lv.Blocks
			row.Records += lv.Records
			row.CapacityBlocks += lv.CapacityBlocks
			row.BlocksWritten += lv.BlocksWritten
			row.Compactions += lv.Compactions
			wasteBlocks[lv.Level-1] += float64(lv.Blocks)
			wasteSum[lv.Level-1] += lv.WasteFactor * float64(lv.Blocks)
			wasteN[lv.Level-1]++
		}
	}
	for i := range out {
		if out[i].Level == 0 {
			// No shard has this level (cannot happen with contiguous
			// growth, but keep the row well-formed).
			out[i].Level = i + 1
		}
		switch {
		case wasteBlocks[i] > 0:
			out[i].WasteFactor = wasteSum[i] / wasteBlocks[i]
		case wasteN[i] == 1:
			// A single empty level row: pass its factor through unchanged.
			for _, ss := range per {
				for _, lv := range ss.Levels {
					if lv.Level == i+1 {
						out[i].WasteFactor = lv.WasteFactor
					}
				}
			}
		}
	}
	return out
}

// stats gathers one shard's snapshot; ok is false if the DB closed.
func (s *shard) stats() (ShardStats, bool) {
	v, err := s.acquireView()
	if err != nil {
		return ShardStats{}, false
	}
	defer v.Release()
	ts := s.tree.Stats()
	dc := s.tree.Device().Counters()
	ss := ShardStats{
		Shard:           s.id,
		BlocksWritten:   dc.Writes,
		BlocksRead:      dc.Reads,
		LiveBlocks:      dc.Live,
		Requests:        ts.Requests,
		Inserts:         ts.Inserts,
		Deletes:         ts.Deletes,
		Lookups:         ts.Lookups,
		Scans:           ts.Scans,
		RequestBytes:    ts.RequestBytes,
		Height:          v.Height(),
		Records:         v.Records(),
		MemtableRecords: v.MemLen(),
		Merges:          ts.Merges,
		FullMerges:      ts.FullMerges,
	}
	for _, lv := range v.Levels() {
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
		cs := c.Stats()
		ss.CacheHits, ss.CacheMisses = cs.Hits, cs.Misses
	}
	if b := s.tree.Blooms(); b != nil {
		ss.BloomSkipped, ss.BloomPassed = b.Counts()
	}
	cs := s.sched.Snapshot()
	ss.Compaction = CompactionStats{
		Mode:         cs.Mode.String(),
		QueueDepth:   cs.QueueDepth,
		L0Blocks:     cs.L0Blocks,
		Steps:        cs.Steps,
		Slowdowns:    cs.Slowdowns,
		Stops:        cs.Stops,
		SlowdownTime: cs.SlowdownTime,
		StopTime:     cs.StopTime,
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		ss.WAL = WALStats{
			Enabled:   true,
			Appends:   ws.Appends,
			Ops:       ws.Ops,
			Bytes:     ws.Bytes,
			Syncs:     ws.Syncs,
			Rotations: ws.Rotations,
			Segments:  ws.Segments,
			LastSeq:   ws.NextSeq - 1,
			Recovery:  s.recovery,
		}
	}
	if s.lat.Enabled() {
		for op := obs.Op(0); op < obs.NumOps; op++ {
			if st, ok := latencyRow(op, s.lat.Hist(op).Snapshot()); ok {
				ss.Latencies = append(ss.Latencies, st)
			}
		}
	}
	ss.Health = s.health.State().String()
	ss.HealthCause, _ = s.health.Cause()
	ss.Quarantined = s.tree.QuarantinedCount()
	rs := s.rdev.RetryStats()
	ss.RetriedReads = rs.Retries
	ss.RetriesExhausted = rs.Exhausted
	ss.ScrubPasses = s.scrubPasses.Load()
	ss.ScrubChecked = s.scrubChecked.Load()
	ss.ScrubCorrupt = s.scrubCorrupt.Load()
	ss.ScrubRepaired = s.scrubRepaired.Load()
	return ss, true
}

// latencyRow materializes one op's summary; ok is false when empty.
func latencyRow(op obs.Op, snap obs.HistSnapshot) (LatencyStats, bool) {
	if snap.Count == 0 {
		return LatencyStats{}, false
	}
	return LatencyStats{
		Op:    op.String(),
		Count: snap.Count,
		Mean:  snap.Mean(),
		P50:   snap.Quantile(0.50),
		P95:   snap.Quantile(0.95),
		P99:   snap.Quantile(0.99),
		Max:   snap.Max(),
	}, true
}

// latHist returns op's DB-wide histogram: the router-level series merged
// with every shard's (histograms over fixed buckets are closed under
// addition).
func (db *DB) latHist(op obs.Op) obs.HistSnapshot {
	snap := db.lat.Hist(op).Snapshot()
	for _, s := range db.shards {
		snap.Merge(s.lat.Hist(op).Snapshot())
	}
	return snap
}

// latencyStats materializes the non-empty DB-wide latency histograms.
func (db *DB) latencyStats() []LatencyStats {
	if !db.lat.Enabled() {
		return nil
	}
	var out []LatencyStats
	for op := obs.Op(0); op < obs.NumOps; op++ {
		if st, ok := latencyRow(op, db.latHist(op)); ok {
			out = append(out, st)
		}
	}
	return out
}

// ResetIOStats starts a fresh measurement window: it zeroes every
// cumulative counter reported by Stats — device read/write traffic,
// request accounting, merge and growth counts, the per-level
// BlocksWritten/Compactions series, cache and Bloom statistics, and the
// latency histograms — across every shard. Structural state (Height,
// Records, LiveBlocks, level contents) is unaffected. See the Stats
// documentation for the uniform-window guarantee this provides.
func (db *DB) ResetIOStats() {
	unlock := db.lockAllShards()
	defer unlock()
	for _, s := range db.shards {
		s.tree.ResetStats() // also resets s.lat (the tree's Config.Lat)
		s.sched.ResetCounters()
		if s.wal != nil {
			s.wal.ResetCounters()
		}
	}
	db.lat.Reset()
	db.tracer.ResetPhases()
}
