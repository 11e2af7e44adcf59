package lsmssd_test

// Tests for the checkpoint split (capture under the writer lock, persist
// without it) and the ordering it must keep. They are deterministic: the
// shard's device is decorated with a gate whose Sync blocks on a channel,
// so "while the checkpoint is persisting" is a state the test holds open
// for as long as it likes instead of a race it hopes to win.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsmssd"
	"lsmssd/internal/manifest"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

// syncGate decorates a device so that, while armed, every Sync announces
// itself on entered and then waits for a verdict on release: nil lets the
// real sync run, an error is returned in its place.
type syncGate struct {
	storage.Device
	armed   atomic.Bool
	entered chan struct{}
	release chan error
}

func newSyncGate() *syncGate {
	// Buffered: a Sync the test is not watching for must not wedge teardown.
	return &syncGate{entered: make(chan struct{}, 16), release: make(chan error, 16)}
}

func (g *syncGate) wrap(_ int, dev storage.Device) storage.Device {
	g.Device = dev
	return g
}

func (g *syncGate) Sync() error {
	if g.armed.Load() {
		g.entered <- struct{}{}
		select {
		case err := <-g.release:
			if err != nil {
				return err
			}
		case <-time.After(2 * testWait): // the test has failed; let teardown through
			return errors.New("sync gate never released")
		}
	}
	return g.Device.(storage.Syncer).Sync()
}

// gatedOpts is a single-shard store small enough that a few hundred puts
// flush, merge and (with the given segment size) rotate the log.
func gatedOpts(t *testing.T, g *syncGate, segmentBytes int64) lsmssd.Options {
	t.Helper()
	return lsmssd.Options{
		Path:            t.TempDir() + "/store.db",
		RecordsPerBlock: 16,
		MemtableBlocks:  8, // slowdown at 256 records, stop at 512 — room for the puts a test issues while merges are blocked
		Gamma:           4,
		CacheBlocks:     -1, // every level read is a device read
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncEvery, SegmentBytes: segmentBytes},
		DeviceWrap:      g.wrap,
	}
}

func ckptValue(key uint64, round int) []byte {
	return []byte(fmt.Sprintf("value-%06d-round-%d-%s", key, round, "padpadpadpadpadpadpadpadpadpad"))
}

const testWait = 20 * time.Second

// within fails the test unless fn returns, without error, before the
// deadline: the assertion "this does not wait for the blocked checkpoint".
// fn runs on its own goroutine so a hang fails the test instead of the run.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(testWait):
		t.Fatalf("%s did not finish within %v: it is waiting behind the blocked checkpoint", what, testWait)
	}
}

func poll(what string, cond func() bool) error {
	deadline := time.Now().Add(testWait)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if err := poll(what, cond); err != nil {
		t.Fatal(err)
	}
}

func awaitEntered(t *testing.T, g *syncGate, what string) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(testWait):
		t.Fatalf("%s never reached its device sync", what)
	}
}

// mustDrain waits for merges and checkpoints to finish (DrainCompaction).
func mustDrain(t *testing.T, db *lsmssd.DB) {
	t.Helper()
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
}

// checkpointEvents subscribes to the bus and returns a snapshot function
// over the CheckpointEvents published so far.
func checkpointEvents(db *lsmssd.DB) func() []lsmssd.CheckpointEvent {
	ch := make(chan lsmssd.CheckpointEvent, 64)
	db.Subscribe(func(ev lsmssd.Event) {
		if ce, ok := ev.(lsmssd.CheckpointEvent); ok {
			ch <- ce
		}
	})
	var seen []lsmssd.CheckpointEvent
	return func() []lsmssd.CheckpointEvent {
		for {
			select {
			case ce := <-ch:
				seen = append(seen, ce)
			default:
				return seen
			}
		}
	}
}

// putRange writes keys [lo, hi) at the given round and records them.
func putRange(db *lsmssd.DB, lo, hi uint64, round int, model map[uint64]int) error {
	for key := lo; key < hi; key++ {
		if err := db.Put(key, ckptValue(key, round)); err != nil {
			return fmt.Errorf("Put(%d): %w", key, err)
		}
		model[key] = round
	}
	return nil
}

func mustPut(t *testing.T, db *lsmssd.DB, key uint64, model map[uint64]int) {
	t.Helper()
	if err := putRange(db, key, key+1, 0, model); err != nil {
		t.Fatal(err)
	}
}

// contents checks that the store holds exactly the model, by Get and by Scan.
func contents(db *lsmssd.DB, model map[uint64]int) error {
	for key, round := range model {
		v, ok, err := db.Get(key)
		if err != nil {
			return fmt.Errorf("Get(%d): %w", key, err)
		}
		if want := ckptValue(key, round); !ok || string(v) != string(want) {
			return fmt.Errorf("key %d: got %q (found=%v), want %q", key, v, ok, want)
		}
	}
	n := 0
	if err := db.Scan(0, ^uint64(0), func(uint64, []byte) bool { n++; return true }); err != nil {
		return err
	}
	if n != len(model) {
		return fmt.Errorf("store holds %d keys, model %d", n, len(model))
	}
	return nil
}

func mustHave(t *testing.T, db *lsmssd.DB, model map[uint64]int) {
	t.Helper()
	if err := contents(db, model); err != nil {
		t.Fatal(err)
	}
}

// preload writes n fresh keys with the gate open and waits for merges and
// checkpoints to drain, so the levels hold data before a test closes it.
func preload(t *testing.T, db *lsmssd.DB, n int, model map[uint64]int, next *uint64) {
	t.Helper()
	if err := putRange(db, *next, *next+uint64(n), 0, model); err != nil {
		t.Fatal(err)
	}
	*next += uint64(n)
	mustDrain(t, db)
}

// putUntilBackgroundCheckpoint arms the gate and writes fresh keys until one
// seals a WAL segment, then waits for the checkpoint that Put requested to
// block in its device sync. The sealing Put must return without waiting for
// that sync. No write follows it, so the checkpoint captured exactly the
// returned sequence.
func putUntilBackgroundCheckpoint(t *testing.T, db *lsmssd.DB, g *syncGate, model map[uint64]int, next *uint64) (captured uint64) {
	t.Helper()
	g.armed.Store(true)
	rotations := db.Stats().WAL.Rotations
	within(t, "the Puts up to and including the one that sealed a WAL segment", func() error {
		for i := 0; db.Stats().WAL.Rotations == rotations; i++ {
			if i == 5000 {
				return errors.New("5000 puts never sealed a WAL segment")
			}
			if err := putRange(db, *next, *next+1, 0, model); err != nil {
				return err
			}
			*next++
		}
		return nil
	})
	awaitEntered(t, g, "the rotation-requested checkpoint")
	return db.Stats().WAL.LastSeq
}

// TestBackgroundCheckpointDoesNotBlockWrites: with the rotation-requested
// checkpoint stuck in its device sync, the Put that sealed the segment has
// returned, later Puts still return, merge steps still run on the shard's
// scheduler, and Gets that go to the device are served; the sealed segment
// waits, and QueueDepth says so. Released, the checkpoint finishes and the
// log shrinks to its active segment.
func TestBackgroundCheckpointDoesNotBlockWrites(t *testing.T) {
	t.Run("background", testCheckpointDoesNotBlockWrites)
}

func testCheckpointDoesNotBlockWrites(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 8<<10)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model, next := map[uint64]int{}, uint64(0)
	preload(t, db, 400, model, &next)

	putUntilBackgroundCheckpoint(t, db, g, model, &next)
	if qd := db.Stats().Compaction.QueueDepth; qd < 1 {
		t.Fatalf("QueueDepth = %d with a checkpoint running; a drain would not wait for it", qd)
	}
	if segs, _ := wal.SegmentFiles(opts.Path + ".wal"); len(segs) < 2 {
		t.Fatalf("%d WAL segments on disk while the covering checkpoint is blocked, want the sealed one kept", len(segs))
	}

	// The checkpoint runs on the checkpointer, not on the scheduler
	// goroutine: merge steps drain L0 while its sync is blocked. Puts go on
	// until one has run — fewer than would reach the stall gate were the
	// merges blocked too.
	mergesBefore := db.Stats().Merges
	within(t, "Puts and merge steps during a blocked checkpoint", func() error {
		for i := 0; db.Stats().Merges == mergesBefore && i < 150; i++ {
			if err := putRange(db, next, next+1, 0, model); err != nil {
				return err
			}
			next++
		}
		return poll("merge steps to run while the checkpoint is blocked", func() bool {
			return db.Stats().Merges > mergesBefore
		})
	})
	readsBefore := db.Stats().BlocksRead
	within(t, "device-reading Gets during a blocked checkpoint", func() error {
		for key := uint64(0); key < 32; key++ {
			if _, ok, err := db.Get(key); err != nil || !ok {
				return fmt.Errorf("Get(%d) = found %v, err %v", key, ok, err)
			}
		}
		return nil
	})
	if db.Stats().BlocksRead == readsBefore {
		t.Fatal("the Gets never reached the device; the test did not exercise a read during the sync")
	}

	g.armed.Store(false)
	g.release <- nil
	mustDrain(t, db)
	if segs, _ := wal.SegmentFiles(opts.Path + ".wal"); len(segs) != 1 {
		t.Fatalf("%d WAL segments after the drain, want only the active one", len(segs))
	}
	mustHave(t, db, model)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitCheckpointDoesNotBlockWritesOrMerges: DB.Checkpoint persists
// off the writer lock as well, and since it runs on the checkpointer the
// scheduler stays free — Puts, device-reading Gets and merge steps all
// complete while its device sync is blocked.
func TestExplicitCheckpointDoesNotBlockWritesOrMerges(t *testing.T) {
	g := newSyncGate()
	db, err := lsmssd.Open(gatedOpts(t, g, 4<<20)) // no rotation: the only checkpoint is the explicit one
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model, next := map[uint64]int{}, uint64(0)
	preload(t, db, 400, model, &next)

	g.armed.Store(true)
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- db.Checkpoint() }()
	awaitEntered(t, g, "DB.Checkpoint")

	mergesBefore := db.Stats().Merges
	within(t, "Puts and merges during a blocked checkpoint", func() error {
		if err := putRange(db, 0, 400, 1, model); err != nil {
			return err
		}
		if err := poll("merge steps to run while the checkpoint is blocked", func() bool {
			return db.Stats().Merges > mergesBefore
		}); err != nil {
			return err
		}
		return lsmssd.DrainCompaction(db)
	})
	readsBefore := db.Stats().BlocksRead
	within(t, "device-reading Gets during a blocked checkpoint", func() error { return contents(db, model) })
	if db.Stats().BlocksRead == readsBefore {
		t.Fatal("the Gets never reached the device")
	}
	select {
	case err := <-ckptErr:
		t.Fatalf("Checkpoint returned (%v) while its device sync was still blocked", err)
	default:
	}

	g.armed.Store(false)
	g.release <- nil
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
}

// TestQueuedCheckpointDoesNotBlockWrites: a DB.Checkpoint that arrives
// while the rotation-requested checkpoint is blocked in its device sync
// waits for it without holding the shard's writer lock, so a Put to that
// shard still completes. Released, both checkpoints finish.
func TestQueuedCheckpointDoesNotBlockWrites(t *testing.T) {
	g := newSyncGate()
	db, err := lsmssd.Open(gatedOpts(t, g, 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model, next := map[uint64]int{}, uint64(0)
	preload(t, db, 400, model, &next)

	putUntilBackgroundCheckpoint(t, db, g, model, &next)
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- db.Checkpoint() }()
	time.Sleep(100 * time.Millisecond) // DB.Checkpoint queues behind the blocked one
	within(t, "a Put while DB.Checkpoint waits for the blocked checkpoint", func() error {
		return putRange(db, next, next+1, 0, model)
	})
	next++
	select {
	case err := <-ckptErr:
		t.Fatalf("Checkpoint returned (%v) while the checkpoint ahead of it was still blocked", err)
	default:
	}

	g.armed.Store(false)
	g.release <- nil
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
	mustDrain(t, db)
	mustHave(t, db, model)
}

// TestCrashDuringBackgroundCheckpoint: a power cut that lands while the
// background checkpoint is between capture and manifest rename leaves the
// previous manifest and every WAL segment in place, and under SyncEvery
// they recover every acknowledged write — including those acknowledged
// while the checkpoint was running.
func TestCrashDuringBackgroundCheckpoint(t *testing.T) {
	t.Run("background", testCrashDuringBackgroundCheckpoint)
}

func testCrashDuringBackgroundCheckpoint(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 8<<10)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	model, next := map[uint64]int{}, uint64(0)
	// An explicit checkpoint first, so "the previous manifest" exists and
	// has something in it.
	preload(t, db, 30, model, &next)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(opts.Path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}

	putUntilBackgroundCheckpoint(t, db, g, model, &next)
	// Acknowledged while the checkpoint is in flight.
	if err := putRange(db, next, next+40, 0, model); err != nil {
		t.Fatal(err)
	}

	// The cut: Crash waits for the checkpointer, whose device sync now
	// fails the way a dying device's would.
	crashed := make(chan error, 1)
	go func() { crashed <- db.Crash() }()
	g.release <- errors.New("power cut")
	select {
	case <-crashed: // teardown reports the interrupted checkpoint; not our concern
	case <-time.After(testWait):
		t.Fatal("Crash did not return")
	}
	after, err := os.ReadFile(opts.Path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("the manifest changed although the checkpoint never got past its device sync")
	}

	opts.DeviceWrap = nil
	opts.Paranoid = true
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rdb.Close()
	mustHave(t, rdb, model)
	if err := rdb.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWALSeqMatchesView: writes acknowledged after the capture are
// not in the captured view, so the manifest's replay cutoff must be the
// captured sequence — not the log's position when the manifest is finally
// written (ahead: those writes are skipped on replay and lost) and not an
// older one (behind: frames already in the view are replayed again). The
// recovery's frame count pins it exactly.
func TestCheckpointWALSeqMatchesView(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 8<<10)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	events := checkpointEvents(db)
	model, next := map[uint64]int{}, uint64(0)

	captured := putUntilBackgroundCheckpoint(t, db, g, model, &next)
	g.armed.Store(false)
	const during = 25 // fewer than a segment's worth: no second rotation
	if err := putRange(db, next, next+during, 0, model); err != nil {
		t.Fatal(err)
	}
	g.release <- nil
	mustDrain(t, db)

	st, err := manifest.Load(opts.Path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	if st.WALSeq != captured {
		t.Fatalf("manifest WALSeq = %d, want the captured sequence %d (log is at %d)",
			st.WALSeq, captured, db.Stats().WAL.LastSeq)
	}
	// The bus delivers on its own goroutine: drained means published, not yet seen.
	waitFor(t, "the checkpoint's event", func() bool { return len(events()) >= 1 })
	evs := events()
	if len(evs) != 1 || evs[0].WALSeq != captured {
		t.Fatalf("checkpoint events = %+v, want one event at sequence %d", evs, captured)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	opts.DeviceWrap = nil
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if got := rdb.Stats().WAL.Recovery.Frames; got != during {
		t.Fatalf("recovery replayed %d frames, want exactly the %d written after the capture", got, during)
	}
	mustHave(t, rdb, model)
}

// TestCheckpointKeepsSlotsFreedAfterCapture is the slot-reuse hazard: blocks
// the captured state names are freed by merges while the checkpoint is
// still persisting. The manifest it then writes names them, so their slots
// must stay parked until the next checkpoint; were they handed back with
// the rest of the limbo list, the writes that follow would overwrite them
// and a crash before the next checkpoint would reopen onto a manifest whose
// blocks hold other records.
func TestCheckpointKeepsSlotsFreedAfterCapture(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 4<<20) // no rotation: checkpoints happen only where the test puts them
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 600
	model := map[uint64]int{}
	round := func(r int) {
		t.Helper()
		if err := putRange(db, 0, keys, r, model); err != nil {
			t.Fatal(err)
		}
		mustDrain(t, db)
	}
	round(0)
	if err := db.Checkpoint(); err != nil { // empties the limbo list
		t.Fatal(err)
	}
	round(1)

	g.armed.Store(true)
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- db.Checkpoint() }()
	awaitEntered(t, g, "DB.Checkpoint") // captured: the image names round 1's blocks

	liveBefore := db.Stats().LiveBlocks
	round(2) // merges rewrite every level, freeing the blocks the image names
	if db.Stats().LiveBlocks > 2*liveBefore {
		t.Fatalf("live blocks grew %d → %d: the frees are being held back, the test would prove nothing",
			liveBefore, db.Stats().LiveBlocks)
	}
	g.armed.Store(false)
	g.release <- nil
	if err := <-ckptErr; err != nil { // the manifest now on disk names blocks freed during round 2
		t.Fatal(err)
	}

	round(3) // allocates: must not land on those slots
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	opts.DeviceWrap = nil
	opts.Paranoid = true // audit block contents against the manifest's metadata on reopen
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer rdb.Close()
	mustHave(t, rdb, model)
	if err := rdb.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRotationDuringCheckpointIsNotLost: rotations that happen while a
// checkpoint is running coalesce into exactly one more checkpoint, whose
// cutoff covers the last of them.
func TestRotationDuringCheckpointIsNotLost(t *testing.T) {
	t.Run("background", testRotationDuringCheckpointIsNotLost)
}

func testRotationDuringCheckpointIsNotLost(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 4<<10)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	events := checkpointEvents(db)
	model, next := map[uint64]int{}, uint64(0)

	putUntilBackgroundCheckpoint(t, db, g, model, &next)
	rotated := db.Stats().WAL.Rotations
	for db.Stats().WAL.Rotations < rotated+2 { // two more segments sealed behind the blocked checkpoint
		mustPut(t, db, next, model)
		next++
	}
	lastSealed := db.Stats().WAL.LastSeq - 1 // the rotating append opened the new segment

	g.release <- nil // first checkpoint completes
	awaitEntered(t, g, "the checkpoint the later rotations requested")
	g.armed.Store(false)
	g.release <- nil
	mustDrain(t, db)

	waitFor(t, "both checkpoints' events", func() bool { return len(events()) >= 2 })
	evs := events()
	if len(evs) != 2 {
		t.Fatalf("%d checkpoints ran for three rotations (two behind a running checkpoint), want 2: %+v", len(evs), evs)
	}
	if evs[1].WALSeq < lastSealed {
		t.Fatalf("second checkpoint covers sequence %d, the last sealed segment ends at %d", evs[1].WALSeq, lastSealed)
	}
	if segs, _ := wal.SegmentFiles(opts.Path + ".wal"); len(segs) != 1 {
		t.Fatalf("%d WAL segments after both checkpoints, want only the active one", len(segs))
	}
	mustHave(t, db, model)
}

// TestFailedBackgroundCheckpointDemotesShard: a background checkpoint whose
// device sync fails demotes the shard — cause "sync-failed", the very next
// write refused, the failure reported again at Close — while the Put that
// sealed the segment was acknowledged and, like every other acknowledged
// write, survives in the log.
func TestFailedBackgroundCheckpointDemotesShard(t *testing.T) {
	t.Run("background", testFailedBackgroundCheckpointDemotesShard)
}

func testFailedBackgroundCheckpointDemotesShard(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 8<<10)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	model, next := map[uint64]int{}, uint64(0)

	putUntilBackgroundCheckpoint(t, db, g, model, &next) // every Put so far, the sealing one included, returned nil
	syncErr := errors.New("injected sync failure")
	g.release <- syncErr
	waitFor(t, "the demotion", func() bool { return db.Health().Shards[0].State == "read-only" })
	if cause := db.Health().Shards[0].Cause; cause != "sync-failed" {
		t.Fatalf("demotion cause %q, want sync-failed", cause)
	}

	err = db.Put(next, ckptValue(next, 0))
	var ro *lsmssd.ShardReadOnlyError
	if !errors.As(err, &ro) || ro.Cause != "sync-failed" || !errors.Is(err, syncErr) {
		t.Fatalf("Put after the failed checkpoint = %v, want a ShardReadOnlyError (sync-failed) wrapping the sync error", err)
	}
	if _, ok, err := db.Get(0); err != nil || !ok {
		t.Fatalf("read-only shard stopped serving reads: found %v, err %v", ok, err)
	}
	g.armed.Store(false)
	if err := db.Close(); !errors.Is(err, syncErr) {
		t.Fatalf("Close = %v, want the parked checkpoint failure", err)
	}

	opts.DeviceWrap = nil
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	mustHave(t, rdb, model)
}

// TestFailedCheckpointSparesOtherShards: the checkpointer serves every
// shard, and a checkpoint that fails there demotes only its own shard. On a
// 2-shard store whose shard 1 device sync fails, DB.Checkpoint reports the
// failure under shard 1's index, shard 0 stays writable and goes on
// checkpointing as its segments seal, and Close reports the failure again.
func TestFailedCheckpointSparesOtherShards(t *testing.T) {
	g := newSyncGate()
	opts := gatedOpts(t, g, 8<<10)
	opts.Shards = 2
	opts.DeviceWrap = func(id int, dev storage.Device) storage.Device {
		if id != 1 {
			return dev
		}
		return g.wrap(id, dev)
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	model, next := map[uint64]int{}, uint64(0)
	preload(t, db, 100, model, &next)

	g.armed.Store(true)
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- db.Checkpoint() }()
	awaitEntered(t, g, "shard 1's checkpoint")
	g.armed.Store(false)
	syncErr := errors.New("injected sync failure")
	g.release <- syncErr
	if err := <-ckptErr; !errors.Is(err, syncErr) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("Checkpoint = %v, want shard 1's sync failure", err)
	}
	if h := db.Health(); h.Shards[0].State != "healthy" || h.Shards[1].State != "read-only" {
		t.Fatalf("health after shard 1's failed checkpoint: %+v, want shard 0 healthy and shard 1 read-only", h.Shards)
	}

	before := db.Stats()
	for key := next &^ 1; db.Stats().WAL.Rotations < before.WAL.Rotations+4; key += 2 { // shard 0's keys
		mustPut(t, db, key, model)
	}
	mustDrain(t, db)
	if got := db.Stats().Shards[0].Checkpoints; got <= before.Shards[0].Checkpoints {
		t.Fatalf("shard 0 checkpointed %d times before four more rotations and %d after; the checkpointer stopped serving it",
			before.Shards[0].Checkpoints, got)
	}
	if err := db.Close(); !errors.Is(err, syncErr) {
		t.Fatalf("Close = %v, want shard 1's checkpoint failure", err)
	}
	opts.DeviceWrap = nil
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	mustHave(t, rdb, model)
}

// TestIdleWALTailIsSynced: under SyncInterval a write followed by silence is
// durable within about an interval — no commit syncs, and the DB's
// interval-sync goroutine syncs the tail whether or not more writes follow.
func TestIdleWALTailIsSynced(t *testing.T) {
	t.Run("background", testIdleWALTailIsSynced)
}

func testIdleWALTailIsSynced(t *testing.T) {
	opts := lsmssd.Options{
		Path: t.TempDir() + "/store.db",
		WAL:  lsmssd.WALOptions{Sync: lsmssd.SyncInterval, Interval: 50 * time.Millisecond},
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(42, []byte("written, then silence")); err != nil {
		t.Fatal(err)
	}
	// The Put leaves its frame unsynced; the interval-sync goroutine then
	// syncs it and the counter moves. Should a tick have synced it before
	// the counter is first read, nothing is left to sync: give up after
	// ten intervals and let the crash below decide either way.
	synced := db.Stats().WAL.Syncs
	for deadline := time.Now().Add(10 * opts.WAL.Interval); db.Stats().WAL.Syncs == synced && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if v, ok, err := rdb.Get(42); err != nil || !ok || string(v) != "written, then silence" {
		t.Fatalf("after the crash: %q, found %v, err %v; the idle tail was never synced", v, ok, err)
	}
}
