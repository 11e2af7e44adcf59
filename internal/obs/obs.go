// Package obs is the engine's zero-dependency observability layer: a
// lock-cheap event bus carrying typed per-merge/per-flush/per-growth
// events, atomic log-bucketed latency histograms, and a stdlib-only HTTP
// endpoint serving Prometheus-text metrics, an engine-state JSON dump, and
// pprof.
//
// The paper's whole argument is about per-merge behaviour — which window a
// policy picked, how many target blocks it overlapped, how many input
// blocks block-preserving merge reused, which waste-repair case fired —
// none of which is reconstructible from a cumulative counter snapshot.
// This package makes that series observable without perturbing the
// experiment: when nothing is subscribed the bus's fast path is a single
// atomic load and no event is ever constructed, so the paper's write
// counts stay byte-identical with observability compiled in.
//
// Layering: obs is a leaf package (standard library only). The engine
// layers (core, merge) publish into a Bus they are handed; sinks consume
// asynchronously on the bus's dispatcher goroutine, never on the writer's
// hot path. Event structs must be constructed only by the instrumented
// packages — the lsmlint obs-event rule enforces this, so every emission
// point stays auditable.
package obs

import (
	"fmt"
	"time"
)

// Event is a typed observability event. The concrete types below are the
// full taxonomy; sinks type-switch on them.
type Event interface{ event() }

// RepairCases is a bitmask of the paper's waste-repair cases (Section
// II-B's merge operation) that fired during one merge:
//
//	case 1: pairwise repair on the source level (around the removed window)
//	case 2: compaction of the source level
//	case 3: pairwise repair on the target level (around the merge output)
//	case 4: compaction of the target level
type RepairCases uint8

// Case returns the bit for paper case n (1-4).
func Case(n int) RepairCases { return 1 << (n - 1) }

// Has reports whether paper case n (1-4) fired.
func (c RepairCases) Has(n int) bool { return c&Case(n) != 0 }

// String renders the fired cases as "1,3", or "-" when none fired.
func (c RepairCases) String() string {
	s := ""
	for n := 1; n <= 4; n++ {
		if c.Has(n) {
			if s != "" {
				s += ","
			}
			s += fmt.Sprintf("%d", n)
		}
	}
	if s == "" {
		return "-"
	}
	return s
}

// MergeEvent describes one executed merge from level From into level To
// (paper numbering: 0 is the memtable). It carries everything the paper's
// per-merge analysis needs: the policy's window choice, the overlap it
// met, the preservation and repair outcome, and the I/O and wall-clock
// cost of the step.
type MergeEvent struct {
	Shard    int // index of the shard whose tree merged (0 unless sharded)
	From, To int
	Policy   string // policy name as reported ("ChooseBest", "RR-P", ...)
	Full     bool   // whole source level merged

	// XFrom, XTo is the chosen window [XFrom, XTo) in source block
	// positions (virtual blocks for L0); XBlocks = XTo-XFrom and YBlocks
	// is the number of target blocks the window's key range overlapped.
	XFrom, XTo       int
	XBlocks, YBlocks int

	// Cost accounting for this one merge. BlocksWritten counts fresh
	// merged output blocks; repairs and compactions (split by side, see
	// RepairCases) come on top. BlocksRead is the device-read delta over
	// the whole step, including repair and compaction reads.
	BlocksRead             int64
	BlocksWritten          int
	PreservedX, PreservedY int // input blocks reused unmodified
	SrcRepairWrites        int // case 1
	SrcCompactionWrites    int // case 2
	TgtRepairWrites        int // case 3
	TgtCompactionWrites    int // case 4
	Cases                  RepairCases
	Compaction             bool // a level compaction (case 2 or 4) fired

	RecordsIn int // records that entered the target level

	// Duration is the step's wall-clock time, plan to install. LockHold is
	// the part of it spent holding the shard's writer lock: planning and
	// installing. The block I/O in between runs without it.
	Duration time.Duration
	LockHold time.Duration
}

func (MergeEvent) event() {}

// TotalWrites is every block write this merge charged to the device:
// merged output plus both sides' repair and compaction writes. Summing
// TotalWrites over a complete trace reproduces the device's BlocksWritten
// counter exactly (the property TestTraceSumsToDeviceWrites pins down).
func (e MergeEvent) TotalWrites() int {
	return e.BlocksWritten + e.SrcRepairWrites + e.SrcCompactionWrites +
		e.TgtRepairWrites + e.TgtCompactionWrites
}

// FlushEvent describes one drain of the memtable (a merge out of L0),
// emitted alongside the corresponding MergeEvent.
type FlushEvent struct {
	Shard        int // index of the shard whose memtable drained (0 unless sharded)
	Records      int // records taken out of the memtable
	RecordsAfter int // records remaining in the memtable
	Full         bool
	Duration     time.Duration
}

func (FlushEvent) event() {}

// GrowEvent records the tree gaining a storage level: the old bottom is
// relabelled and a fresh empty level takes its place (Section II-A).
type GrowEvent struct {
	Height         int // new height including L0
	BottomLevel    int // number of the (relabelled) new bottom level
	BottomCapacity int // its capacity in blocks
}

func (GrowEvent) event() {}

// CacheEvent reports buffer-cache traffic deltas accumulated since the
// previous CacheEvent (emitted after each merge, so the series aligns with
// the merge trace). Deltas include concurrent readers' traffic and are
// therefore approximate under concurrency.
type CacheEvent struct {
	Hits, Misses int64
}

func (CacheEvent) event() {}

// WarnEvent is an operator-facing warning — currently emitted when a
// level's waste factor exceeds 0.9·ε, i.e. constraint-repair pressure is
// building before the invariant auditor would trip. The warning latches
// per level and re-arms once the level drops back under the threshold.
type WarnEvent struct {
	Level       int
	WasteFactor float64
	Epsilon     float64
	Message     string
}

func (WarnEvent) event() {}

// StallEvent records write-path backpressure: an admission paid the
// pacing sleep (Kind "slowdown") or blocked
// on the hard stall gate (Kind "stop") because L0 reached the
// corresponding trigger. Duration is what the write actually waited.
type StallEvent struct {
	Kind     string // "slowdown" or "stop"
	L0Blocks int    // L0 size when the stall ended, in blocks
	Trigger  int    // the crossed threshold, in blocks
	Duration time.Duration
}

func (StallEvent) event() {}

// WALEvent reports a write-ahead-log lifecycle action from the DB layer:
// a segment rotation (Kind "rotate", which requests the automatic
// checkpoint) or a checkpoint-driven garbage collection (Kind "gc").
type WALEvent struct {
	Kind     string // "rotate" or "gc"
	Segments int    // segment files on disk after the action
	Removed  int    // segments deleted (gc only)
	LastSeq  uint64 // last appended frame sequence
}

func (WALEvent) event() {}

// CheckpointEvent describes one completed checkpoint of one shard: the
// state captured under the writer lock (microseconds) and persisted
// without it — device sync, manifest write, reclamation of the block
// slots freed before the capture, WAL segment GC. Only Capture holds the
// writer lock, except at Close and after recovery, where no writer waits. A
// failed checkpoint publishes no event (a failed device sync publishes the
// HealthEvent of its demotion).
type CheckpointEvent struct {
	Shard  int
	WALSeq uint64 // last WAL frame the manifest covers (0 before any frame)

	Capture      time.Duration // writer lock held: pin the view, read the log sequence, mark limbo
	DeviceSync   time.Duration // fsync of the device file
	ManifestSave time.Duration // read the view out, encode, write, fsync, rename, directory sync
	GC           time.Duration // slot reclamation and WAL segment removal

	SlotsReclaimed  int // freed block slots returned to the allocator
	SegmentsRemoved int // WAL segments deleted
}

func (CheckpointEvent) event() {}

// RecoveryEvent summarizes a crash recovery performed by Open: the WAL
// frames replayed over the checkpoint manifest, and any torn tail
// truncated from the final segment.
type RecoveryEvent struct {
	Segments  int   // WAL segment files scanned
	Frames    int   // frames replayed (sequence beyond the checkpoint)
	Ops       int   // operations inside replayed frames
	TornBytes int64 // bytes dropped from the torn tail, if any
	Duration  time.Duration
}

func (RecoveryEvent) event() {}

// RunEvent marks measurement-window boundaries in a recorded trace. The
// experiment harness emits one at the start of a window (Writes zero) and
// one at the end carrying the device's write counter for the window, so a
// trace consumer can check per-merge write counts against the device.
type RunEvent struct {
	Name      string
	Phase     string // "measure-start" or "measure-end"
	Writes    int64  // device writes over the window (end phase only)
	RequestMB float64
}

func (RunEvent) event() {}

// HealthEvent records one accepted shard health transition. Every
// demotion and promotion carries its cause, so chaos runs and operators
// can attribute each state change to the fault that produced it.
type HealthEvent struct {
	Shard int
	From  string // health.State display names; obs stays a pure leaf
	To    string
	Cause string // machine-stable cause tag, e.g. "enospc", "wal-poisoned"
	Err   string // the triggering error's text, "" for promotions
}

func (HealthEvent) event() {}

// ScrubEvent summarizes one completed scrub pass over a shard's live
// blocks: how many device copies were verified, how many were corrupt,
// and how the corrupt ones were resolved (rewritten from a surviving
// copy vs quarantined).
type ScrubEvent struct {
	Shard       int
	Checked     int // block device copies verified this pass
	Corrupt     int // failed verification this pass
	Repaired    int // rewritten from a surviving copy (this pass)
	Quarantined int // blocks in quarantine after the pass
	Duration    time.Duration
}

func (ScrubEvent) event() {}
