// Package lsmssd is a log-structured merge (LSM) tree storage engine
// optimized for solid-state drives, implementing the merge policies,
// relaxed level storage, and block-preserving merges of Thonangi & Yang,
// "On Log-Structured Merge for Solid-State Drives" (ICDE 2017).
//
// The engine organizes records in levels of geometrically increasing
// capacity. New data enters a memory-resident top level; storage levels
// change only through merges, so blocks are never updated in place. What
// distinguishes this engine is the pluggable merge policy — Full, RR
// (LevelDB-style round-robin), ChooseBest (least-overlap window), or the
// self-tuning Mixed policy — and the block-preserving merge, which reuses
// input blocks in the merge output whenever key ranges allow, subject to
// provable waste bounds.
//
// A quick start:
//
//	db, err := lsmssd.Open(lsmssd.Options{})
//	if err != nil { ... }
//	defer db.Close()
//	db.Put(42, []byte("answer"))
//	v, ok, err := db.Get(42)
//
// Batched writes pay one writer-lock acquisition and one merge-cascade
// check for the whole batch:
//
//	b := db.NewBatch()
//	b.Put(1, []byte("one"))
//	b.Put(2, []byte("two"))
//	b.Delete(3)
//	err = db.Apply(b)
//
// An Iterator streams a key range in order from a snapshot frozen at
// creation; concurrent writes and merges never change what it yields:
//
//	it, err := db.NewIterator(0, 99)
//	if err != nil { ... }
//	for it.Next() {
//		use(it.Key(), it.Value())
//	}
//	err = it.Close() // also reports any iteration error
//
// Reads (Get, Scan, NewIterator, Stats, Histogram) are lock-free and
// safe from any number of goroutines concurrently with writers, which
// serialize on the writer locks of the shards they touch. After Close, every operation fails
// with ErrClosed.
//
// A file-backed store writes every mutation to a write-ahead log before
// applying it, and Open replays the log after a crash. The sync policy
// picks the fsync cadence, and with it what a crash may lose: nothing
// acknowledged under the default SyncEvery, an unsynced tail under
// SyncInterval or SyncNever (after a process crash, the at most 64 KiB of
// frames the log still buffered; after a power cut, everything unsynced):
//
//	db, err := lsmssd.Open(lsmssd.Options{
//		Path: "/data/store.blk",
//		WAL:  lsmssd.WALOptions{Sync: lsmssd.SyncNever},
//	})
//
// The log lives outside the block device, so the device write counts stay
// byte-identical to the paper's cost model (see DESIGN.md §11).
package lsmssd

import (
	"fmt"
	"math"
	"time"

	"lsmssd/internal/block"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

// Policy selects the merge policy (Section III–IV of the paper).
type Policy int

// Merge policies.
const (
	// ChooseBest merges the window of δK consecutive source blocks
	// overlapping the fewest next-level blocks: bounded cost for every
	// single merge, and the best practical default before tuning.
	ChooseBest Policy = iota
	// Full merges the entire overflowing level, as in the original
	// LSM-tree.
	Full
	// RR merges δK-block windows round-robin through the key space,
	// approximating LevelDB's compaction.
	RR
	// TestMixed runs ChooseBest everywhere except into the bottom level,
	// which uses Full (the paper's diagnostic hybrid).
	TestMixed
	// Mixed switches between Full and ChooseBest per level based on
	// thresholds; use DB.TuneMixed to learn them for a workload.
	Mixed
)

// String returns the policy name as used in the paper.
func (p Policy) String() string {
	switch p {
	case Full:
		return "Full"
	case RR:
		return "RR"
	case ChooseBest:
		return "ChooseBest"
	case TestMixed:
		return "TestMixed"
	case Mixed:
		return "Mixed"
	}
	return "unknown"
}

// Layout selects how each storage level arranges its sorted runs — the
// layout axis of the compaction design space (Options.Layout).
type Layout int

const (
	// Leveling keeps exactly one sorted run per level: the paper's model
	// and the default. Reads consult one run per level; every merge into a
	// level rewrites part of it, so records are rewritten up to Γ times
	// per level.
	Leveling Layout = iota
	// Tiering lets every level accumulate up to TierRuns sorted runs
	// before they are merged together and pushed down: each record is
	// written once per level (minimal write amplification), at the price
	// of up to TierRuns runs to consult per read.
	Tiering
	// LazyLeveling tiers every level except the last, which stays leveled:
	// tiering's write savings on the upper levels, leveling's point- and
	// range-read behavior on the level holding most of the data.
	LazyLeveling
)

// String returns "leveling", "tiering", or "lazy".
func (l Layout) String() string {
	return policy.LayoutKind(l).String()
}

// CompactionMode is the type of the ignored Options.CompactionMode.
//
// Deprecated: every merge runs on the shard's compaction goroutine; see
// DB. The type and its two constants remain only because the benchmark
// module sets them, and will be removed with that use.
type CompactionMode int

const (
	// Deprecated: ignored; see CompactionMode.
	SyncCompaction CompactionMode = iota
	// Deprecated: ignored; see CompactionMode.
	BackgroundCompaction
)

// SyncPolicy selects when the write-ahead log fsyncs (Options.WAL.Sync).
// The policy trades write latency for the amount of acknowledged data a
// power cut can lose; see DESIGN.md §11 for the full trade-off table.
type SyncPolicy int

const (
	// SyncEvery fsyncs the log before acknowledging each mutation: zero
	// acknowledged writes are lost on a crash. Group commit applies twice:
	// a WriteBatch pays one fsync for the whole batch, whichever shards it
	// spans, and concurrent writers share fsyncs — one fsync covers every
	// frame written before it started, so a writer whose frame is already
	// covered waits for that fsync instead of issuing its own. A frame
	// lands in the log's zero-filled tail, so the sync is an fdatasync on
	// Linux that flushes the frame's data and no file-system metadata
	// (DESIGN.md §11.1). The default.
	SyncEvery SyncPolicy = iota
	// SyncInterval fsyncs about once per WALOptions.Interval — inline in a
	// write that finds the last fsync that old, and from shard 0's
	// background goroutine every Interval, so the tail of a log that went
	// idle is synced too. A power cut loses at most about the final
	// interval's writes (the goroutine's sync can be late by a merge step
	// or a checkpoint in progress), and recovery always yields a prefix of
	// the acknowledged history (never a gap). Between syncs the log keeps
	// frames in memory and writes them to its file once 64 KiB have
	// collected, so a process crash, not only a power cut, loses
	// acknowledged writes: at most 64 KiB of frames, and at most the same
	// interval.
	SyncInterval
	// SyncNever leaves fsync timing to the operating system: fastest, and
	// a power cut may lose everything since the last checkpoint or natural
	// write-back. The log writes its file once 64 KiB of frames have
	// collected in memory (and at rotation and Close), so a write makes no
	// system call, and a process crash loses at most those 64 KiB of
	// acknowledged frames. Recovery still yields an acknowledged-prefix
	// state.
	SyncNever
)

// String returns "every", "interval", or "never".
func (p SyncPolicy) String() string { return wal.SyncPolicy(p).String() }

// WALOptions configures the write-ahead log (Options.WAL): one log per DB,
// shared by every shard, which every file-backed store keeps alongside its
// device file as Path + ".wal.NNNNNNNN", whatever the shard count. An
// in-memory store has no log; Validate checks these fields all the same.
// The zero value logs with SyncEvery. The log lives outside the block
// device, so it adds nothing to BlocksWritten.
type WALOptions struct {
	// Enabled is ignored: every file-backed store has a log.
	//
	// Deprecated: remove the assignment.
	Enabled bool
	// Sync selects the fsync cadence (default SyncEvery).
	Sync SyncPolicy
	// Interval is the target time between fsyncs under SyncInterval
	// (default 100ms): how old acknowledged-but-unsynced writes may get,
	// whether or not more writes follow. Ignored by the other policies.
	Interval time.Duration
	// SegmentBytes caps a log segment (default 4 MiB). Filling a segment
	// seals it. Each shard checkpoints once Shards segments have been
	// sealed while it had frames its last checkpoint does not cover — every
	// sealed segment with one shard, about every SegmentBytes of its own
	// logged bytes with several — which bounds both recovery replay time
	// and the disk the log holds: about Shards+1 segments. The write that
	// sealed the segment only requests the checkpoints: each shard's
	// background goroutine runs its fsyncs off the writer lock, so no Put
	// waits for them, and a failure surfaces on the shard's next write or
	// at Close. A sealed segment is deleted once every shard with frames
	// in it has a durable checkpoint covering it, so a shard that stops
	// writing does not keep the log growing; a shard that cannot
	// checkpoint (read-only) does, until the store is reopened.
	SegmentBytes int64
}

// Options configures a DB. The zero value is a working in-memory engine
// with the paper's default parameters scaled to library use.
type Options struct {
	// Path, when set, stores data blocks in a file at this location,
	// checkpointed through a manifest at Path + ".manifest", and logs every
	// mutation to a write-ahead log at Path + ".wal.NNNNNNNN" (one for the
	// whole DB; see WAL), so a crash loses no write the sync policy made
	// durable. With Shards > 1, shard 0 keeps this exact layout and shard i
	// adds ".shard<i>" to the files it owns (device and manifest).
	Path string
	// Shards splits the key space across this many independent LSM trees
	// (hash routing by key & (Shards-1)), each with its own memtable,
	// levels, manifest, and compaction scheduler, so writers to different
	// shards never contend on one writer lock; they share the DB's one
	// write-ahead log, and with it their fsyncs. Must be a power of two;
	// default 1, which is byte-identical to the unsharded engine. The
	// shard count is recorded in the manifest and a store must be
	// reopened with the count it was created with. Note that MemtableBlocks
	// is per shard: total memtable memory scales with Shards.
	Shards int
	// WAL configures the write-ahead log of a file-backed store; see
	// WALOptions.
	WAL WALOptions
	// BlockSize is the storage block size in bytes (default 4096).
	BlockSize int
	// RecordsPerBlock is B, the per-block record capacity. Zero derives it
	// from BlockSize for 100-byte values, the paper's setting (36 at the
	// default BlockSize). Records with larger values still work in memory;
	// they simply occupy more encoded space, and the file device rejects a
	// block whose encoding exceeds BlockSize — so with Path, set B to the
	// number of your largest records that fit in one block.
	RecordsPerBlock int
	// MemtableBlocks is K0, the capacity of the in-memory level measured
	// in blocks (default 256).
	MemtableBlocks int
	// Gamma is Γ, the capacity ratio between adjacent levels (default 10).
	Gamma int
	// Epsilon is ε, the maximum fraction of empty record slots allowed
	// per level (default 0.2; at most 0.5).
	Epsilon float64
	// Delta is δ, the fraction of a level a partial merge takes
	// (default 0.07, the paper's experimental setting).
	Delta float64
	// MergePolicy selects the merge policy (default ChooseBest).
	MergePolicy Policy
	// Layout selects the level layout (default Leveling, the paper's
	// model). Tiering and LazyLeveling trade read fan-out for write
	// amplification; see the Layout constants. The layout is recorded in
	// the manifest and a store must be reopened with the layout it was
	// written under.
	Layout Layout
	// TierRuns is T, the number of sorted runs a tiered level accumulates
	// before compacting (default 4). Ignored under Leveling; must be at
	// least 2 otherwise.
	TierRuns int
	// DisablePreserve turns off block-preserving merges, yielding the
	// paper's "-P" policy variants.
	DisablePreserve bool
	// CacheBlocks sizes the LRU buffer cache in blocks (default 1024;
	// set negative to disable caching).
	CacheBlocks int
	// BloomBitsPerKey, when positive, maintains per-block Bloom filters
	// to skip reads for absent keys; zero or negative turns them off. At
	// most 64: above about 11.6 the hash count is capped at 8, so larger
	// values only add memory. Filters are held in memory, not on disk:
	// Open rebuilds them, at about one uncounted block read per live block,
	// so a reopened store skips reads as the store that was closed did.
	BloomBitsPerKey float64
	// MixedTaus and MixedBeta preset the Mixed policy's parameters
	// (target level → τ, and the bottom-level decision). Ignored for
	// other policies. DB.TuneMixed learns them instead.
	MixedTaus map[int]float64
	// MixedBeta is the bottom-level full-merge decision for Mixed.
	MixedBeta bool
	// Seed fixes all internal randomness; runs with equal options and
	// inputs are reproducible (default 1).
	Seed int64
	// CompactionMode is ignored: every merge runs on the shard's compaction
	// goroutine.
	//
	// Deprecated: remove the assignment; see CompactionMode.
	CompactionMode CompactionMode
	// MetricsAddr, when set, serves the observability endpoint on this TCP
	// address: Prometheus-text /metrics, an engine-state JSON dump at
	// /debug/lsm, the flight-recorder timeline at /debug/lsm/timeline, the
	// slow-op capture at /debug/lsm/slow, expvar at /debug/vars, and pprof
	// under /debug/pprof/. Use "127.0.0.1:0" for an ephemeral port;
	// DB.MetricsAddr reports the bound address. Setting it implies Metrics
	// (latency recording and the flight recorder). The endpoint is
	// unauthenticated and pprof exposes heap contents — bind it to
	// loopback or a firewalled interface, never a public address. Empty
	// (the default) serves nothing.
	MetricsAddr string
	// Metrics turns on latency recording and the flight recorder without
	// serving HTTP: per-operation histograms (Stats.Latencies, per-shard in
	// Stats.Shards) and the in-memory timeline behind DB.Timeline. Implied
	// by MetricsAddr; set it alone to observe through the Go API only.
	// Off (the default), the engine records no latencies and runs no
	// recorder goroutine. The recorder ticks once a second; each tick
	// appends one sample per shard — ops/s, latency quantile deltas, stall
	// state, compaction debt, WAL sync latency, cache hit rate — to a
	// bounded in-memory ring covering the last 512 ticks (about 8.5
	// minutes).
	Metrics bool
	// TraceSampleRate, when positive, phase-traces one in this many
	// operations: the sampled op's wall time is attributed across engine
	// phases (WAL append, fsync wait, stall wait, memtable, cascade, Bloom,
	// cache vs device reads, k-way merge) and published as a SpanEvent.
	// Zero (the default) disables sampling; untraced operations pay two
	// atomic loads and allocate nothing.
	TraceSampleRate int
	// SlowOpThreshold, when positive, phase-traces every operation and
	// retains those whose total latency meets the threshold in a bounded
	// ring, inspectable via DB.SlowOps and /debug/lsm/slow. Unlike
	// sampling this times every op (a slow one cannot be known in
	// advance), so it costs two time.Now calls per op plus the phase
	// transitions. Zero (the default) disables slow-op capture.
	SlowOpThreshold time.Duration
	// ReadRetries caps the attempts a device read makes before its error
	// surfaces: transient failures (flaky media, injected faults) are
	// retried through a bounded, jittered backoff, while permanent ones
	// (ErrCorrupt, ErrNotFound, no-space) pass through on the first try.
	// Default 3; set 1 to disable retries. Exhausting the retries demotes
	// the shard to Degraded (see Health).
	ReadRetries int
	// ScrubInterval, when positive, runs a background scrubber per shard:
	// every interval it walks the shard's live blocks verifying their
	// device checksums, quarantines corrupt blocks (excluding them from
	// merges), repairs them from a surviving cached copy when possible,
	// and promotes a Degraded shard back to Healthy after a clean pass.
	// Zero (the default) disables scrubbing. A pass pauses between blocks
	// — 500µs, or less when that would stretch the pass beyond one interval
	// — which bounds the scrubber's read pressure.
	ScrubInterval time.Duration
	// DeviceWrap, when set, decorates each shard's device at Open:
	// the shard's base device is passed in and the returned device is
	// used in its place (the engine's retry layer then wraps the result).
	// This is the sanctioned fault-injection seam — the chaos harness and
	// fault-isolation tests wrap shards in a faultdev here. Production
	// code leaves it nil.
	DeviceWrap func(shard int, dev storage.Device) storage.Device
	// Paranoid audits the paper's structural invariants (waste bounds,
	// pairwise block constraint, fence consistency, level-size bounds; see
	// internal/invariant) after every merge, level growth, and request.
	// A violation surfaces as an error from the mutating call. Intended
	// for tests and debugging: the per-merge audit reads every data block
	// (via Peek, so I/O statistics are unaffected), which is far too
	// expensive for production traffic.
	Paranoid bool
}

// defaultPayload is the value size, in bytes, behind the derived default
// RecordsPerBlock: the paper's 100-byte payloads.
const defaultPayload = 100

func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.BlockSize == 0 {
		o.BlockSize = 4096
	}
	if o.RecordsPerBlock == 0 {
		o.RecordsPerBlock = block.CapacityFor(o.BlockSize, defaultPayload)
	}
	if o.MemtableBlocks == 0 {
		o.MemtableBlocks = 256
	}
	if o.Gamma == 0 {
		o.Gamma = 10
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.2
	}
	if o.Delta == 0 {
		o.Delta = 0.07
	}
	switch o.CacheBlocks {
	case 0:
		o.CacheBlocks = 1024
	default:
		if o.CacheBlocks < 0 {
			o.CacheBlocks = 0
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.WAL.Interval == 0 {
		o.WAL.Interval = 100 * time.Millisecond
	}
	if o.WAL.SegmentBytes == 0 {
		o.WAL.SegmentBytes = 4 << 20
	}
	if o.ReadRetries == 0 {
		o.ReadRetries = 3
	}
	if o.MetricsAddr != "" {
		o.Metrics = true
	}
	return o
}

// Validate checks the options for parameter values the engine cannot run
// with, returning an error that names the offending field. Zero values are
// interpreted as "use the default" (as in Open) and are therefore valid;
// explicitly out-of-range values are not. Open validates automatically;
// call Validate directly to vet configuration before paying Open's device
// setup.
func (o Options) Validate() error {
	derivedB := o.RecordsPerBlock == 0
	o = o.withDefaults()
	if o.Shards < 1 || o.Shards > 1024 || o.Shards&(o.Shards-1) != 0 {
		return fmt.Errorf("lsmssd: Options.Shards %d must be a power of two in [1, 1024]: keys route by key & (Shards-1)", o.Shards)
	}
	if o.BlockSize < 0 {
		return fmt.Errorf("lsmssd: Options.BlockSize %d is negative", o.BlockSize)
	}
	if least := block.MinSizeFor(defaultPayload); o.Path != "" && derivedB && o.BlockSize < least {
		return fmt.Errorf("lsmssd: Options.BlockSize %d cannot hold one %d-byte-value record: a file-backed store needs at least %d, or an explicit RecordsPerBlock",
			o.BlockSize, defaultPayload, least)
	}
	if o.RecordsPerBlock < 0 {
		return fmt.Errorf("lsmssd: Options.RecordsPerBlock %d is negative; use 0 to derive it from BlockSize", o.RecordsPerBlock)
	}
	if o.MemtableBlocks < 0 {
		return fmt.Errorf("lsmssd: Options.MemtableBlocks %d is negative; use 0 for the default", o.MemtableBlocks)
	}
	if o.Epsilon <= 0 || o.Epsilon > 0.5 {
		return fmt.Errorf("lsmssd: Options.Epsilon %g outside (0, 0.5]: ε is the allowed fraction of empty record slots per level", o.Epsilon)
	}
	if o.Delta <= 0 || o.Delta > 1 {
		return fmt.Errorf("lsmssd: Options.Delta %g outside (0, 1]: δ is the fraction of a level one partial merge takes", o.Delta)
	}
	if o.Gamma < 2 {
		return fmt.Errorf("lsmssd: Options.Gamma %d below 2: levels must grow geometrically", o.Gamma)
	}
	switch o.Layout {
	case Leveling, Tiering, LazyLeveling:
	default:
		return fmt.Errorf("lsmssd: Options.Layout %d is not Leveling, Tiering, or LazyLeveling", o.Layout)
	}
	if b := o.BloomBitsPerKey; math.IsNaN(b) || math.IsInf(b, 0) || b > 64 {
		return fmt.Errorf("lsmssd: Options.BloomBitsPerKey %g must be finite and at most 64 (zero or negative turns filters off)", b)
	}
	if o.TierRuns < 0 || o.TierRuns == 1 {
		return fmt.Errorf("lsmssd: Options.TierRuns %d invalid: a tiered level needs a run budget of at least 2 (0 means the default)", o.TierRuns)
	}
	if o.ReadRetries < 0 {
		return fmt.Errorf("lsmssd: Options.ReadRetries %d is negative; use 1 to disable retries", o.ReadRetries)
	}
	if o.ScrubInterval < 0 {
		return fmt.Errorf("lsmssd: Options.ScrubInterval %v is negative; use 0 to disable scrubbing", o.ScrubInterval)
	}
	if o.TraceSampleRate < 0 {
		return fmt.Errorf("lsmssd: Options.TraceSampleRate %d is negative; use 0 to disable sampling", o.TraceSampleRate)
	}
	if o.SlowOpThreshold < 0 {
		return fmt.Errorf("lsmssd: Options.SlowOpThreshold %v is negative; use 0 to disable slow-op capture", o.SlowOpThreshold)
	}
	switch o.WAL.Sync {
	case SyncEvery, SyncInterval, SyncNever:
	default:
		return fmt.Errorf("lsmssd: Options.WAL.Sync %d is not SyncEvery, SyncInterval, or SyncNever", o.WAL.Sync)
	}
	if o.WAL.Interval < 0 {
		return fmt.Errorf("lsmssd: Options.WAL.Interval %v is negative", o.WAL.Interval)
	}
	if o.WAL.SegmentBytes < 4096 {
		return fmt.Errorf("lsmssd: Options.WAL.SegmentBytes %d below 4096: segments must hold at least a few frames", o.WAL.SegmentBytes)
	}
	return nil
}

// buildPolicy constructs the internal policy for the options: the legacy
// merge-policy constructor picks the granularity and movement axes, then
// the layout axis is composed on top (a no-op under Leveling, keeping the
// legacy policies byte-identical).
func (o Options) buildPolicy() *policy.Policy {
	preserve := !o.DisablePreserve
	var p *policy.Policy
	switch o.MergePolicy {
	case Full:
		p = policy.NewFull(preserve)
	case RR:
		p = policy.NewRR(o.Delta, preserve)
	case TestMixed:
		p = policy.NewTestMixed(o.Delta, preserve)
	case Mixed:
		p = policy.NewMixed(o.Delta, preserve, o.MixedTaus, o.MixedBeta)
	default:
		p = policy.NewChooseBest(o.Delta, preserve)
	}
	if o.Layout != Leveling {
		p = p.WithLayout(policy.Layout{Kind: policy.LayoutKind(o.Layout), TierRuns: o.TierRuns})
	}
	return p
}
