package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsmssd/internal/bloom"
	"lsmssd/internal/btree"
	"lsmssd/internal/cache"
	"lsmssd/internal/level"
	"lsmssd/internal/memtable"
	"lsmssd/internal/merge"
	"lsmssd/internal/obs"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// Tree is the LSM-tree engine. L0 is guarded by the tree's own memMu, so
// mutations (Put, Delete, ApplyBatch) need no caller lock beyond the
// log-ordering one the DB keeps; the storage levels change only under the
// merge lock the caller holds (the cascade steps, RepairBlock, ForceGrow).
// Reads are snapshot-isolated: Get, Scan, and Iter run
// against an acquired View and may proceed concurrently with both (see
// view.go). DESIGN.md §13.4 is the lock table.
type Tree struct {
	cfg    Config
	dev    storage.Device // Config.Device, possibly behind a cache
	cache  *cache.Cache   // always set; capacity 0 when CacheBlocks <= 0
	blooms *bloom.Registry
	mem    *memtable.Table // see memMu

	slots []*slot // slots[i] is level L_{i+1}; merge lock

	// memMu, L0's mutex, guards L0 and levelBacklog: every change (a whole
	// batch, a step's install), every read outside a View (the overflow
	// check, the gauges) and every snapshot. gen counts the batches L0 has
	// taken: ApplyBatch advances it under memMu, and every View records the
	// value its L0 snapshot saw, so a view whose generation is gen's holds
	// every completed write. Lock order: viewMu, then memMu.
	memMu sync.Mutex
	gen   atomic.Uint64

	// The storage levels firing in the installed level image (memMu),
	// which answers CompactionBacklog. The image itself is the current
	// View's: every install publishes one.
	levelBacklog int

	// Blocks written and blocks freed by the storage-level mutation in
	// progress (merge lock). Install hands the frees to the snapshot
	// protocol; a failed step frees the writes.
	written []storage.BlockID
	pending []storage.BlockID

	// Layout axis, resolved from the policy once at New: how many sorted
	// runs each level may hold.
	layout policy.Layout

	cnt     counters
	onMerge func(MergeEvent)

	// Quarantined corrupt blocks (quarantine.go): excluded from merges,
	// pinned on the device, resolved by the scrubber.
	quar quarantineSet

	// Observability (internal/obs). bus and lat come from Config and may be
	// nil; both are nil-safe. lastCacheHits/lastCacheMisses anchor the
	// CacheEvent deltas.
	bus             *obs.Bus
	lat             *obs.LatencySet
	lastCacheHits   int64
	lastCacheMisses int64

	// L0's virtual-block metadata as the step in flight sees it — its
	// memtable snapshot's — which SourceMetas(0) serves to the policy
	// (merge lock). Built once per step: policies consult it several times
	// per decision.
	memMetas []btree.BlockMeta

	// Snapshot state (view.go). viewMu guards the reference counts, the
	// live views, the deferred frees and the captures and installs that
	// replace the current view — never any block I/O, so readers cannot
	// stall behind a merge's reads and writes. cur and closed change only
	// under viewMu; they are atomics for PinView's lock-free path.
	viewMu     sync.Mutex
	cur        atomic.Pointer[View]
	liveViews  []*View // views not yet dropped, ascending seq
	seq        uint64
	zombies    []zombieBatch
	zombieN    int64
	closed     atomic.Bool
	reclaimErr error
}

// slot is one storage level of the tree. Under the leveling layout it
// holds exactly one sorted run — the classic level, and the only shape the
// byte-identical legacy paths ever see. Under tiering (and in the tiered
// upper levels of lazy leveling) it holds up to MaxRuns runs, newest
// first: runs[0] is the most recently written run and therefore the first
// consulted by reads, matching the k-way merge's earlier-stream-wins
// shadowing order.
type slot struct {
	runs []*level.Level

	// Write accounting carried over from runs this slot has retired:
	// tiered merges drain whole runs, but the per-level BlocksWritten and
	// Compactions series must stay cumulative across those drains.
	retiredWrites      int64
	retiredCompactions int64
}

func newSlot(run *level.Level) *slot { return &slot{runs: []*level.Level{run}} }

// newest is the run reads consult first; for a leveled slot, the level.
func (s *slot) newest() *level.Level { return s.runs[0] }

func (s *slot) records() int {
	n := 0
	for _, r := range s.runs {
		n += r.Records()
	}
	return n
}

func (s *slot) blocks() int {
	n := 0
	for _, r := range s.runs {
		n += r.Blocks()
	}
	return n
}

// requiredBlocks is S(L_i) in blocks: each run packs independently, so the
// slot size is the sum of per-run required blocks. Identical to the legacy
// level size for single-run slots.
func (s *slot) requiredBlocks() int {
	n := 0
	for _, r := range s.runs {
		n += r.RequiredBlocks()
	}
	return n
}

func (s *slot) blocksWritten() int64 {
	n := s.retiredWrites
	for _, r := range s.runs {
		n += r.BlocksWritten
	}
	return n
}

func (s *slot) compactions() int64 {
	n := s.retiredCompactions
	for _, r := range s.runs {
		n += r.Compactions
	}
	return n
}

// prepend installs run as the slot's newest. A lone empty run (a fresh or
// just-drained slot) is replaced rather than kept alongside, its write
// accounting folded into the retired counters.
func (s *slot) prepend(run *level.Level) {
	if len(s.runs) == 1 && s.runs[0].Blocks() == 0 {
		s.retiredWrites += s.runs[0].BlocksWritten
		s.retiredCompactions += s.runs[0].Compactions
		s.runs[0] = run
		return
	}
	s.runs = append([]*level.Level{run}, s.runs...)
}

// MergeEvent describes one executed merge, delivered to the OnMerge hook.
// Level numbers follow the paper: 0 is the memtable, h−1 the bottom.
type MergeEvent struct {
	From, To         int
	Full             bool // whole source level merged
	XBlocks, YBlocks int
	BlocksWritten    int // fresh blocks written into the target
	PreservedX       int
	PreservedY       int
	RepairWrites     int // both source- and target-side pair repairs
	CompactionWrites int // both source- and target-side compactions
	RecordsIn        int // records that entered the target level
}

// New builds an empty tree with one storage level (a 2-level tree in the
// paper's counting: L0 plus L1). Levels are added as the bottom overflows.
func New(cfg Config) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{cfg: cfg, dev: cfg.Device, bus: cfg.Bus, lat: cfg.Lat,
		layout: cfg.Policy.Layout()}
	// Every read goes through the cache, which passes straight through
	// to the device when it holds no frames.
	t.cache = cache.New(cfg.Device, max(cfg.CacheBlocks, 0))
	t.dev = t.cache
	if cfg.BloomBitsPerKey > 0 {
		t.blooms = bloom.NewRegistry(cfg.BloomBitsPerKey)
	}
	t.mem = memtable.New(cfg.Seed)
	t.slots = append(t.slots, newSlot(t.newLevel(1)))
	t.installLevels(t.levelImage())
	return t, nil
}

func (t *Tree) newLevel(number int) *level.Level {
	return level.New(level.Config{
		Device:        treeDevice{t},
		BlockCapacity: t.cfg.BlockCapacity,
		Epsilon:       t.cfg.Epsilon,
		Capacity:      t.cfg.capacityBlocks(number),
		Blooms:        t.blooms,
	})
}

// OnMerge registers fn to be called after every merge (nil to unregister).
// The parameter-learning harness and the per-level cost plots hang off
// this hook.
func (t *Tree) OnMerge(fn func(MergeEvent)) { t.onMerge = fn }

// Height returns the number of levels including L0, i.e. the paper's h.
func (t *Tree) Height() int { return len(t.slots) + 1 }

// Level returns the newest run of the i-th storage level (1-based, like
// the paper's L_i) — under leveling, the level itself. It is exposed for
// diagnostics and experiments; treat it as read-only. Layout-aware callers
// use Runs.
func (t *Tree) Level(i int) *level.Level { return t.slots[i-1].newest() }

// Runs returns the sorted runs of the i-th storage level, newest first. A
// leveled level holds exactly one run. Treat as read-only.
func (t *Tree) Runs(i int) []*level.Level { return t.slots[i-1].runs }

// LevelImage returns the storage levels as a View would capture them now.
// Merge lock; treat as read-only.
func (t *Tree) LevelImage() []LevelView {
	levels, _ := t.levelImage()
	return levels
}

// Layout returns the layout axis the tree runs under.
func (t *Tree) Layout() policy.Layout { return t.layout }

// tiered reports whether level number i holds multiple runs under the
// tree's layout at its current height.
func (t *Tree) tiered(i int) bool { return t.layout.Tiered(i, t.Height()) }

// fires is the paper's overflow rule, the one condition under which the
// cascade acts on level i (0 = the memtable): L0 at K0·B records, a storage
// level at K_i required blocks (⌈records/B⌉, the paper's level-size unit)
// or, when tiered, at a full run budget.
func (t *Tree) fires(i int) bool {
	if i == 0 {
		return t.mem.Len() >= t.cfg.K0*t.cfg.BlockCapacity
	}
	s := t.slots[i-1]
	if s.requiredBlocks() >= t.cfg.capacityBlocks(i) {
		return true
	}
	budget := t.layout.MaxRuns(i, t.Height())
	return budget > 1 && len(s.runs) >= budget
}

// Memtable exposes L0 for diagnostics; treat it as read-only.
func (t *Tree) Memtable() *memtable.Table { return t.mem }

// Device returns the device seen by the tree (after cache wrapping).
func (t *Tree) Device() storage.Device { return t.dev }

// Cache returns the tree-owned buffer cache (with no frames when
// CacheBlocks <= 0).
func (t *Tree) Cache() *cache.Cache { return t.cache }

// Blooms returns the registry the levels build Bloom filters with, or nil.
func (t *Tree) Blooms() *bloom.Registry { return t.blooms }

// Policy returns the merge policy in use.
func (t *Tree) Policy() *policy.Policy { return t.cfg.Policy }

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// --- policy.View implementation ----------------------------------------

// SourceMetas implements policy.View. L0's are those of the memtable
// snapshot the step in flight planned from.
func (t *Tree) SourceMetas(from int) []btree.BlockMeta {
	if from == 0 {
		return t.memMetas
	}
	return t.slots[from-1].newest().Index().All()
}

// setMemMetas makes snap's virtual blocks what SourceMetas(0) serves.
func (t *Tree) setMemMetas(snap *memtable.Snapshot) {
	vms := snap.VirtualBlocks(t.cfg.BlockCapacity)
	t.memMetas = make([]btree.BlockMeta, len(vms))
	for i, vm := range vms {
		t.memMetas[i] = btree.BlockMeta{Min: vm.Min, Max: vm.Max, Count: vm.Count}
	}
}

// TargetMetas implements policy.View.
func (t *Tree) TargetMetas(from int) []btree.BlockMeta {
	if from >= len(t.slots) {
		return nil
	}
	return t.slots[from].newest().Index().All()
}

// CapacityBlocks implements policy.View.
func (t *Tree) CapacityBlocks(level int) int { return t.cfg.capacityBlocks(level) }

// SizeBlocks implements policy.View: S(L_i) in required blocks, summed
// over the level's runs. L0's is that of the step's memtable snapshot: one
// virtual block per B records.
func (t *Tree) SizeBlocks(level int) int {
	if level == 0 {
		return len(t.memMetas)
	}
	if level > len(t.slots) {
		return 0
	}
	return t.slots[level-1].requiredBlocks()
}

// --- overflow handling ---------------------------------------------------

// ForceGrow adds a level ahead of the bottom level's overflow. The paper
// observes (Section V-A) that full merges into a relatively empty new
// bottom level are very cost-effective and asks "whether we can increase
// the number of levels strategically to gain performance in certain
// situations"; this hook makes that experiment possible (see
// BenchmarkExtensionForcedGrowth). Merge lock.
func (t *Tree) ForceGrow() {
	t.grow()
	t.installLevels(t.levelImage())
}

// grow relabels the overflowing bottom level L_{h−1} as L_h and inserts a
// fresh empty L_{h−1}, increasing the tree's height by one (Section II-A).
// The old bottom keeps its runs and stays the bottom — under lazy leveling
// the leveled bottom therefore remains leveled across growth.
func (t *Tree) grow() {
	n := len(t.slots) // old bottom is level number n
	old := t.slots[n-1]
	for _, r := range old.runs {
		r.SetCapacity(t.cfg.capacityBlocks(n + 1))
	}
	fresh := newSlot(t.newLevel(n))
	t.slots = append(t.slots[:n-1], fresh, old)
	t.cfg.Policy.LevelsGrew(n)
	t.cnt.grows.Add(1)
	if t.bus.Enabled() {
		t.bus.Publish(obs.GrowEvent{
			Height:         t.Height(),
			BottomLevel:    n + 1,
			BottomCapacity: t.cfg.capacityBlocks(n + 1),
		})
	}
}

// chooseMergeFromMem asks the policy which window of L0, as the step's
// snapshot holds it, to merge into L1.
func (t *Tree) chooseMergeFromMem(st *step) error {
	// Quarantine gate before the merge: a blocked target refuses the step
	// before any block is read.
	if err := t.quarantineCheck(1, t.slots[0].newest()); err != nil {
		return err
	}
	d := t.cfg.Policy.Decide(t, 0)
	metas := t.SourceMetas(0)
	if d.Full {
		st.tr.xTo = len(metas)
		return nil
	}
	if d.From < 0 || d.To > len(metas) || d.From >= d.To {
		return fmt.Errorf("core: policy %s returned bad L0 window [%d,%d) of %d",
			t.cfg.Policy.Name(), d.From, d.To, len(metas))
	}
	st.full = d.From == 0 && d.To == len(metas)
	st.tr.xFrom, st.tr.xTo = d.From, d.To
	st.lo, st.hi = metas[d.From].Min, metas[d.To-1].Max
	return nil
}

// mergeFromMem merges the planned L0 window, as the snapshot holds it,
// into L1.
func (t *Tree) mergeFromMem(st *step) error {
	recs := st.window()
	if len(recs) == 0 {
		return fmt.Errorf("core: empty merge window from L0")
	}
	src := merge.NewRecordSource(recs, t.cfg.BlockCapacity)
	res, err := merge.Merge(src, 0, src.NumBlocks(), t.slots[0].newest(), merge.Options{
		Preserve:       t.cfg.Policy.Preserve(),
		DropTombstones: t.bottom(1),
	})
	if err != nil {
		return err
	}
	st.records = len(recs)
	st.setMerged(1, src.NumBlocks(), res, 0, 0)
	return nil
}

// chooseMergeFromLevel asks the policy which window of L_i to merge into
// L_{i+1}.
func (t *Tree) chooseMergeFromLevel(st *step) error {
	i := st.from
	src := t.slots[i-1].newest()
	if err := t.quarantineCheck(i, src, t.slots[i].newest()); err != nil {
		return err
	}
	d := t.cfg.Policy.Decide(t, i)
	from, to := d.From, d.To
	if d.Full {
		from, to = 0, src.Blocks()
	}
	if from < 0 || to > src.Blocks() || from >= to {
		return fmt.Errorf("core: policy %s returned bad window [%d,%d) of %d blocks at L%d",
			t.cfg.Policy.Name(), from, to, src.Blocks(), i)
	}
	st.full = d.Full || (from == 0 && to == src.Blocks())
	st.xFrom, st.xTo = from, to
	st.tr.xFrom, st.tr.xTo = from, to
	return nil
}

// mergeFromLevel merges the planned window of L_i into L_{i+1}.
func (t *Tree) mergeFromLevel(st *step) error {
	i := st.from
	src := t.slots[i-1].newest()
	res, err := merge.Merge(merge.LevelSource{Level: src}, st.xFrom, st.xTo, t.slots[i].newest(), merge.Options{
		Preserve:       t.cfg.Policy.Preserve(),
		DropTombstones: t.bottom(i + 1),
	})
	if err != nil {
		return err
	}
	repairW, compW, err := merge.RemoveSourceWindow(src, st.xFrom, st.xTo, res.KeepSource)
	if err != nil {
		return err
	}
	st.setMerged(i+1, st.xTo-st.xFrom, res, repairW, compW)
	return nil
}

// bottom reports whether level number i is the bottom level.
func (t *Tree) bottom(i int) bool { return i == len(t.slots) }

// audit runs the configured Auditor, if any. Every step's install calls
// it, so a paranoid tree verifies its constraints after every structural
// change, mid-cascade included.
func (t *Tree) audit() error {
	if t.cfg.Auditor == nil {
		return nil
	}
	if err := t.cfg.Auditor(t); err != nil {
		return fmt.Errorf("core: post-merge audit: %w", err)
	}
	return nil
}

// mergeTrace carries the observability context captured before a merge
// step executes. traced is false — and no field is populated — unless a
// bus sink is subscribed or latency recording is on, so the untraced merge
// path calls neither time.Now nor Counters.
type mergeTrace struct {
	traced      bool
	start       time.Time
	readsBefore int64
	xFrom, xTo  int
}

func (t *Tree) beginMergeTrace() mergeTrace {
	if !t.bus.Enabled() && !t.lat.Enabled() {
		return mergeTrace{}
	}
	return mergeTrace{traced: true, start: time.Now(), readsBefore: t.dev.Counters().Reads}
}

// emitMerge counts an installed merge step and reports it: to the OnMerge
// hook, the merge latency series, and — with a subscriber — the bus, as a
// MergeEvent (plus the FlushEvent of a step out of L0) carrying the time
// the step spent in plan and install.
func (t *Tree) emitMerge(st *step) {
	res := st.res
	t.cnt.merges.Add(1)
	if st.full {
		t.cnt.fullMerges.Add(1)
	}
	ev := MergeEvent{
		From:             st.from,
		To:               st.to,
		Full:             st.full,
		XBlocks:          st.xBlocks,
		YBlocks:          res.YBlocks,
		BlocksWritten:    res.BlocksWritten,
		PreservedX:       res.PreservedX,
		PreservedY:       res.PreservedY,
		RepairWrites:     res.RepairWrites + st.srcRepairW,
		CompactionWrites: res.CompactionWrites + st.srcCompW,
		RecordsIn:        res.RecordsIn,
	}
	if t.onMerge != nil {
		t.onMerge(ev)
	}
	tr := st.tr
	if !tr.traced {
		return
	}
	d := time.Since(tr.start)
	t.lat.Observe(obs.OpMerge, d)
	if !t.bus.Enabled() {
		return
	}
	srcRepairW, srcCompW := st.srcRepairW, st.srcCompW
	var cases obs.RepairCases
	if srcRepairW > 0 {
		cases |= obs.Case(1)
	}
	if srcCompW > 0 {
		cases |= obs.Case(2)
	}
	if res.RepairWrites > 0 {
		cases |= obs.Case(3)
	}
	if res.CompactionWrites > 0 {
		cases |= obs.Case(4)
	}
	t.bus.Publish(obs.MergeEvent{
		Shard:               t.cfg.Shard,
		From:                st.from,
		To:                  st.to,
		Policy:              t.cfg.Policy.Name(),
		Full:                st.full,
		XFrom:               tr.xFrom,
		XTo:                 tr.xTo,
		XBlocks:             st.xBlocks,
		YBlocks:             res.YBlocks,
		BlocksRead:          t.dev.Counters().Reads - tr.readsBefore,
		BlocksWritten:       res.BlocksWritten,
		PreservedX:          res.PreservedX,
		PreservedY:          res.PreservedY,
		SrcRepairWrites:     srcRepairW,
		SrcCompactionWrites: srcCompW,
		TgtRepairWrites:     res.RepairWrites,
		TgtCompactionWrites: res.CompactionWrites,
		Cases:               cases,
		Compaction:          srcCompW > 0 || res.CompactionWrites > 0,
		RecordsIn:           res.RecordsIn,
		Duration:            d,
		LockHold:            st.hold,
	})
	t.emitCacheDelta()
	t.checkWasteWarnings()
	if st.snap != nil {
		t.memMu.Lock()
		after := t.mem.Len()
		t.memMu.Unlock()
		t.bus.Publish(obs.FlushEvent{
			Shard:        t.cfg.Shard,
			Records:      st.records,
			RecordsAfter: after,
			Full:         st.full,
			Duration:     d,
		})
	}
}

// emitCacheDelta publishes buffer-cache traffic accumulated since the last
// emission, aligning the cache series with the merge trace. Only called
// with the bus enabled.
func (t *Tree) emitCacheDelta() {
	st := t.cache.Stats()
	dh, dm := st.Hits-t.lastCacheHits, st.Misses-t.lastCacheMisses
	t.lastCacheHits, t.lastCacheMisses = st.Hits, st.Misses
	if dh == 0 && dm == 0 {
		return
	}
	t.bus.Publish(obs.CacheEvent{Hits: dh, Misses: dm})
}

// wasteWarnFraction of ε is the early-warning threshold: a level whose
// waste factor crosses it is one or two preserving merges away from
// tripping the hard constraint and forcing repairs.
const wasteWarnFraction = 0.9

// checkWasteWarnings publishes a WarnEvent the first time a level's waste
// factor exceeds 0.9·ε; the warning re-arms once the level drops back
// under the threshold. Only called with the bus enabled.
func (t *Tree) checkWasteWarnings() {
	thresh := wasteWarnFraction * t.cfg.Epsilon
	for i, s := range t.slots {
		for _, l := range s.runs {
			wf := l.WasteFactor()
			if wf <= thresh {
				l.Warned = false
				continue
			}
			if l.Warned {
				continue
			}
			l.Warned = true
			t.bus.Publish(obs.WarnEvent{
				Level:       i + 1,
				WasteFactor: wf,
				Epsilon:     t.cfg.Epsilon,
				Message: fmt.Sprintf("L%d waste factor %.3f above %.0f%% of ε=%.3f: repair pressure building",
					i+1, wf, wasteWarnFraction*100, t.cfg.Epsilon),
			})
		}
	}
}

// Validate checks every invariant of every level plus cross-level block
// accounting; tests and the harness call it between phases. It uses Peek
// throughout, leaving the experiment counters untouched. It runs under the
// merge lock: what only the live levels know (index aggregates, every run's
// capacity label) is checked here, the rest by the current snapshot's
// View.Validate and by ValidateAccounting — the pair the public DB uses.
func (t *Tree) Validate() error {
	for i, s := range t.slots {
		for j, l := range s.runs {
			if err := l.Validate(); err != nil {
				return fmt.Errorf("core: L%d run %d: %w", i+1, j, err)
			}
			if want := t.cfg.capacityBlocks(i + 1); l.Capacity() != want {
				return fmt.Errorf("core: L%d run %d capacity %d, want %d", i+1, j, l.Capacity(), want)
			}
		}
	}
	v, err := t.AcquireView()
	if err != nil {
		return err
	}
	defer v.Release()
	if err := v.Validate(); err != nil {
		return err
	}
	return t.ValidateAccounting()
}

// ValidateAccounting checks the device's live-block count against the
// levels' references: every live block is referenced by exactly one level,
// except blocks whose free is deferred until snapshot readers release them.
// The public DB pairs it (under the merge lock, which keeps steps from
// allocating meanwhile) with a lock-free View.Validate.
func (t *Tree) ValidateAccounting() error {
	if err := t.reclaimError(); err != nil {
		return err
	}
	liveWant := int64(0)
	for _, s := range t.slots {
		liveWant += int64(s.blocks())
	}
	// Read both counts under viewMu: a reader releasing a view frees
	// deferred blocks under it, which moves both at once.
	t.viewMu.Lock()
	got, deferred := t.dev.Counters().Live, t.zombieN
	t.viewMu.Unlock()
	if got != liveWant+deferred {
		return fmt.Errorf("core: device has %d live blocks, levels reference %d (+%d deferred frees)",
			got, liveWant, deferred)
	}
	return nil
}
