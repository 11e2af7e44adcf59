package lsmssd

// White-box tests for the health layer: the pure write-error classifier,
// the ShardReadOnlyError unwrap contract, and the scrub/repair/quarantine
// path driven deterministically by invoking scrubPass directly (no
// background scrubber, no timing).

import (
	"errors"
	"fmt"
	"syscall"
	"testing"

	"lsmssd/internal/core"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/health"
	"lsmssd/internal/storage"
	"lsmssd/internal/wal"
)

func TestClassifyWriteError(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		to    health.State
		cause string
	}{
		{"nil", nil, health.Healthy, ""},
		{"wal-poisoned", fmt.Errorf("append: %w", wal.ErrPoisoned), health.ReadOnly, "wal-poisoned"},
		{"no-space", fmt.Errorf("flush: %w", storage.ErrNoSpace), health.ReadOnly, "enospc"},
		{"injected-no-space", fmt.Errorf("flush: %w", faultdev.ErrNoSpace), health.ReadOnly, "enospc"},
		{"syscall-enospc", fmt.Errorf("write: %w", syscall.ENOSPC), health.ReadOnly, "enospc"},
		{"quarantined", fmt.Errorf("merge: %w", core.ErrQuarantined), health.ReadOnly, "quarantined-compaction"},
		{"corrupt", fmt.Errorf("read: %w", storage.ErrCorrupt), health.Degraded, "corrupt-read"},
		{"closed", ErrClosed, health.Healthy, ""},
		{"other", errors.New("a caller mistake"), health.Healthy, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			to, cause := classifyWriteError(tc.err)
			if to != tc.to || cause != tc.cause {
				t.Fatalf("classifyWriteError(%v) = (%v, %q), want (%v, %q)", tc.err, to, cause, tc.to, tc.cause)
			}
		})
	}
}

func TestShardReadOnlyErrorUnwrap(t *testing.T) {
	e := &ShardReadOnlyError{Shard: 3, State: "read-only", Cause: "enospc", Err: storage.ErrNoSpace}
	if !errors.Is(e, ErrShardReadOnly) {
		t.Fatal("errors.Is(e, ErrShardReadOnly) = false")
	}
	if !errors.Is(e, storage.ErrNoSpace) {
		t.Fatal("errors.Is(e, storage.ErrNoSpace) = false: the demoting cause must stay testable")
	}
	for _, want := range []string{"shard 3", "read-only", "enospc"} {
		if !errContains(e, want) {
			t.Fatalf("error text %q does not mention %q", e.Error(), want)
		}
	}
	bare := &ShardReadOnlyError{Shard: 0, State: "failed", Cause: "corrupt-read-while-read-only"}
	if !errors.Is(bare, ErrShardReadOnly) {
		t.Fatal("errors.Is on a cause-less ShardReadOnlyError = false")
	}
}

func errContains(err error, sub string) bool {
	s := err.Error()
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// openWithFault opens a single-shard store whose device is wrapped in a
// zero-schedule faultdev, returning both so the test can corrupt blocks
// deterministically.
func openWithFault(t *testing.T, opts Options) (*DB, *faultdev.Device) {
	t.Helper()
	var fd *faultdev.Device
	opts.DeviceWrap = func(shard int, dev storage.Device) storage.Device {
		fd = faultdev.Wrap(dev, faultdev.Options{})
		return fd
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db, fd
}

// liveBlock returns one storage-level block of shard 0.
func liveBlock(t *testing.T, db *DB) (storage.BlockID, int) {
	t.Helper()
	v, err := db.shards[0].acquireView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	for _, lv := range v.Levels() {
		for _, run := range lv.Runs {
			if len(run) > 0 {
				return run[0].ID, lv.Number
			}
		}
	}
	t.Fatal("no storage blocks; workload too small to flush")
	return 0, 0
}

func healthWorkload(t *testing.T, db *DB, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		if err := db.Put(uint64(k), []byte(fmt.Sprintf("value-%04d", k))); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	// Settle the merges: one still running when a test corrupts a block
	// may read it and demote the shard before the test's own step does.
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRepairsCorruption: a corrupt device block is detected by the
// scrub pass below the buffer cache, quarantined, and repaired from the
// surviving cached copy — leaving the shard healthy, the quarantine
// empty, and every key readable.
func TestScrubRepairsCorruption(t *testing.T) {
	db, fd := openWithFault(t, Options{MemtableBlocks: 2, RecordsPerBlock: 16})
	healthWorkload(t, db, 200)

	id, _ := liveBlock(t, db)
	fd.Corrupt(id)
	s := db.shards[0]
	s.scrubPass()

	if got := s.scrubCorrupt.Load(); got != 1 {
		t.Fatalf("scrubCorrupt = %d, want 1", got)
	}
	if got := s.scrubRepaired.Load(); got != 1 {
		t.Fatalf("scrubRepaired = %d, want 1 (cache held a surviving copy)", got)
	}
	if n := s.tree.QuarantinedCount(); n != 0 {
		t.Fatalf("quarantine holds %d blocks after a successful repair, want 0", n)
	}
	if st := s.health.State(); st != health.Healthy {
		t.Fatalf("shard state %v after repair, want Healthy", st)
	}
	for k := 0; k < 200; k++ {
		v, ok, err := db.Get(uint64(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("value-%04d", k) {
			t.Fatalf("Get(%d) after repair: ok=%v err=%v", k, ok, err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("Validate after repair: %v", err)
	}
	// The repair must have left the device copy clean: a second pass finds
	// nothing.
	s.scrubPass()
	if got := s.scrubCorrupt.Load(); got != 1 {
		t.Fatalf("second scrub pass found more corruption (total %d), repair did not stick", got)
	}
}

// TestScrubQuarantinesUnrepairable: with the cache disabled there is no
// surviving copy, so the corrupt block stays quarantined, the shard
// demotes to Degraded, and the health report names the block.
func TestScrubQuarantinesUnrepairable(t *testing.T) {
	db, fd := openWithFault(t, Options{MemtableBlocks: 2, RecordsPerBlock: 16, CacheBlocks: -1})
	healthWorkload(t, db, 200)

	id, lvl := liveBlock(t, db)
	fd.Corrupt(id)
	s := db.shards[0]
	s.scrubPass()

	if n := s.tree.QuarantinedCount(); n != 1 {
		t.Fatalf("quarantine holds %d blocks, want 1 (no cache copy to repair from)", n)
	}
	if st := s.health.State(); st != health.Degraded {
		t.Fatalf("shard state %v, want Degraded", st)
	}
	hr := db.Health()
	if hr.State != "degraded" {
		t.Fatalf("Health().State = %q, want degraded", hr.State)
	}
	sh := hr.Shards[0]
	if sh.Cause != "scrub-corruption" {
		t.Fatalf("Health cause = %q, want scrub-corruption", sh.Cause)
	}
	if len(sh.Quarantined) != 1 || sh.Quarantined[0].Block != uint64(id) || sh.Quarantined[0].Level != lvl {
		t.Fatalf("Health quarantine list = %+v, want block %d at level %d", sh.Quarantined, id, lvl)
	}
	if st := db.Stats(); st.Health != "degraded" || st.Quarantined != 1 {
		t.Fatalf("Stats Health=%q Quarantined=%d, want degraded/1", st.Health, st.Quarantined)
	}
}

// TestRetryExhaustionDegrades: a device whose reads fail persistently
// exhausts the bounded retry schedule; the error surfaces to the caller
// and the shard demotes to Degraded with the retry cause.
func TestRetryExhaustionDegrades(t *testing.T) {
	db, fd := openWithFault(t, Options{MemtableBlocks: 2, RecordsPerBlock: 16, CacheBlocks: -1, ReadRetries: 2})
	healthWorkload(t, db, 200)

	fd.FailReadAt(fd.Reads() + 1) // every device read from now on fails
	if _, _, err := db.Get(0); err == nil {
		t.Fatal("Get succeeded with every device read failing")
	}
	ss := db.Stats().Shards[0]
	if ss.RetriesExhausted == 0 {
		t.Fatalf("RetriesExhausted = 0 after a failed read, want > 0 (RetriedReads=%d)", ss.RetriedReads)
	}
	if ss.Health != "degraded" || ss.HealthCause != "read-retries-exhausted" {
		t.Fatalf("shard health %q cause %q, want degraded/read-retries-exhausted", ss.Health, ss.HealthCause)
	}
}
