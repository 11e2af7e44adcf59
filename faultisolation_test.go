package lsmssd_test

// Fault-domain isolation, end to end through the public API: one shard of
// a four-shard store is driven into ENOSPC through the sanctioned
// fault-injection seam (Options.DeviceWrap), and the test asserts the
// blast radius stays inside that shard — the unfaulted shards perform
// byte-identical device work to a paired fault-free run, stay healthy,
// and keep accepting writes; the faulted shard demotes to read-only with
// a cause-carrying event, keeps serving reads, and recovers fully on a
// clean reopen with zero acknowledged writes lost.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"lsmssd"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/storage"
)

const (
	isoShards = 4
	isoTarget = 2 // shard the fault schedule is injected into
	isoOps    = 1600
)

func isoOptions(dir string) lsmssd.Options {
	return lsmssd.Options{
		Path:            filepath.Join(dir, "store.db"),
		Shards:          isoShards,
		MemtableBlocks:  2,
		RecordsPerBlock: 16,
		WAL: lsmssd.WALOptions{
			Enabled:      true,
			Sync:         lsmssd.SyncEvery,
			SegmentBytes: 8 << 10,
		},
	}
}

func isoValue(op int) []byte {
	return []byte(fmt.Sprintf("iso-value-%06d", op))
}

// isoWorkload puts sequence-numbered keys (key & 3 is the shard). Writes
// may fail only on shard tolerate; acknowledged writes are returned. Every
// other shard's compaction is drained after each write, so its merge
// sequence, and with it its device write count, is deterministic; shard
// tolerate is left alone, since its scheduler stops at the fault.
func isoWorkload(t *testing.T, db *lsmssd.DB, tolerate int) map[uint64][]byte {
	t.Helper()
	acked := make(map[uint64][]byte, isoOps)
	for op := 0; op < isoOps; op++ {
		key := uint64(op)
		err := db.Put(key, isoValue(op))
		if derr := lsmssd.DrainCompaction(db, tolerate); derr != nil {
			t.Fatal(derr)
		}
		if err == nil {
			acked[key] = isoValue(op)
			continue
		}
		if int(key)&(isoShards-1) != tolerate {
			t.Fatalf("unfaulted shard %d refused Put(%d): %v", int(key)&(isoShards-1), key, err)
		}
	}
	return acked
}

// TestApplyAcrossShardsIsAllOrNothing pins Apply's cross-shard atomicity
// on a 2-shard store whose shard 1 is read-only: a batch touching both
// shards returns ErrShardReadOnly, logs nothing, and applies nothing —
// neither shard's portion is present, before or after a power cut.
func TestApplyAcrossShardsIsAllOrNothing(t *testing.T) {
	opts := isoOptions(t.TempDir())
	opts.Shards = 2
	opts.DeviceWrap = func(shard int, dev storage.Device) storage.Device {
		if shard != 1 {
			return dev
		}
		return faultdev.Wrap(dev, faultdev.Options{CapacityBlocks: 6})
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Odd keys route to shard 1: write them until its device runs out of space.
	for key := uint64(1); db.Health().Shards[1].State != "read-only"; key += 2 {
		if key > 2*isoOps {
			t.Fatal("shard 1 never ran out of space")
		}
		db.Put(key, isoValue(int(key))) // fails once the ceiling is reached
	}

	const healthy, readOnly = 1 << 20, 1<<20 + 1 // shard 0, shard 1
	b := db.NewBatch()
	b.Put(healthy, []byte("refused"))
	b.Put(readOnly, []byte("refused"))
	appends := db.Stats().WAL.Appends
	if err := db.Apply(b); !errors.Is(err, lsmssd.ErrShardReadOnly) {
		t.Fatalf("Apply over a read-only shard = %v, want ErrShardReadOnly", err)
	}
	if got := db.Stats().WAL.Appends; got != appends {
		t.Fatalf("refused Apply logged %d frames, want none", got-appends)
	}
	portions := func(db *lsmssd.DB, when string) {
		t.Helper()
		for _, key := range []uint64{healthy, readOnly} {
			if v, ok, err := db.Get(key); err != nil || ok {
				t.Fatalf("%s: shard %d's portion = %q, found %v, err %v; want it absent", when, key&1, v, ok, err)
			}
		}
	}
	portions(db, "after Apply")

	if err := db.Crash(); err != nil {
		t.Fatalf("crash teardown: %v", err)
	}
	opts.DeviceWrap = nil
	rdb, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer rdb.Close()
	portions(rdb, "after a power cut")
}

func TestFaultIsolationAcrossShards(t *testing.T) {
	// Fault-free reference run: per-shard device write counts.
	baseDir := t.TempDir()
	base, err := lsmssd.Open(isoOptions(baseDir))
	if err != nil {
		t.Fatal(err)
	}
	isoWorkload(t, base, -1)
	baseWrites := make([]int64, isoShards)
	for i, ss := range base.Stats().Shards {
		baseWrites[i] = ss.BlocksWritten
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// Faulted run: a capacity ceiling on the target shard's device only.
	dir := t.TempDir()
	opts := isoOptions(dir)
	opts.DeviceWrap = func(shard int, dev storage.Device) storage.Device {
		if shard != isoTarget {
			return dev
		}
		return faultdev.Wrap(dev, faultdev.Options{CapacityBlocks: 6})
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var evMu sync.Mutex
	var events []lsmssd.HealthEvent
	db.Subscribe(func(ev lsmssd.Event) {
		if he, ok := ev.(lsmssd.HealthEvent); ok {
			evMu.Lock()
			events = append(events, he)
			evMu.Unlock()
		}
	})
	acked := isoWorkload(t, db, isoTarget)

	// The ceiling must have demoted the target shard to read-only.
	hr := db.Health()
	if hr.Shards[isoTarget].State != "read-only" || hr.Shards[isoTarget].Cause != "enospc" {
		t.Fatalf("faulted shard health = %+v, want read-only/enospc", hr.Shards[isoTarget])
	}
	if hr.State != "read-only" {
		t.Fatalf("aggregate Health().State = %q, want read-only (worst shard)", hr.State)
	}

	// Writes to the faulted shard fail fast with the typed error.
	probe := uint64(isoOps + isoTarget) // isoOps is a multiple of isoShards
	err = db.Put(probe, []byte("probe"))
	if !errors.Is(err, lsmssd.ErrShardReadOnly) {
		t.Fatalf("Put on read-only shard: %v, want ErrShardReadOnly", err)
	}
	var sre *lsmssd.ShardReadOnlyError
	if !errors.As(err, &sre) || sre.Shard != isoTarget || sre.Cause != "enospc" {
		t.Fatalf("ShardReadOnlyError = %+v, want shard %d cause enospc", sre, isoTarget)
	}

	// Sibling shards keep accepting writes...
	sibling := uint64(isoOps) // shard 0
	if err := db.Put(sibling, isoValue(isoOps)); err != nil {
		t.Fatalf("sibling shard refused a write after shard %d demoted: %v", isoTarget, err)
	}
	acked[sibling] = isoValue(isoOps)
	// ...and the read-only shard still serves its acknowledged keys.
	for key, want := range acked {
		if int(key)&(isoShards-1) != isoTarget {
			continue
		}
		v, ok, gerr := db.Get(key)
		if gerr != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("read-only shard no longer serves acked key %d: ok=%v err=%v", key, ok, gerr)
		}
		break
	}

	// Isolation: unfaulted shards did byte-identical device work to the
	// fault-free run (the one extra sibling put above lands in its
	// memtable, not the device, so the counter comparison still holds).
	for i, ss := range db.Stats().Shards {
		if i == isoTarget {
			continue
		}
		if ss.BlocksWritten != baseWrites[i] {
			t.Fatalf("shard %d wrote %d blocks with shard %d faulted, %d fault-free: the fault leaked",
				i, ss.BlocksWritten, isoTarget, baseWrites[i])
		}
		if ss.Health != "healthy" {
			t.Fatalf("unfaulted shard %d is %q", i, ss.Health)
		}
	}

	// Crash; the bus drains, so the event log is complete.
	if err := db.Crash(); err != nil {
		t.Fatalf("crash teardown: %v", err)
	}
	evMu.Lock()
	got := append([]lsmssd.HealthEvent(nil), events...)
	evMu.Unlock()
	if len(got) == 0 {
		t.Fatal("demotion published no health events")
	}
	readOnly := false
	for _, ev := range got {
		if ev.Shard != isoTarget {
			t.Fatalf("health event %+v names shard %d; fault was on shard %d", ev, ev.Shard, isoTarget)
		}
		if ev.Cause == "" {
			t.Fatalf("health event %s -> %s has no cause", ev.From, ev.To)
		}
		if ev.To == "read-only" {
			readOnly = true
		}
	}
	if !readOnly {
		t.Fatalf("no read-only demotion among events %+v", got)
	}

	// Recovery: reopen without the fault. Every shard is healthy again,
	// every acknowledged write survived (SyncEvery), and the previously
	// faulted shard accepts writes once more.
	ropts := isoOptions(dir)
	rdb, err := lsmssd.Open(ropts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer rdb.Close()
	if hr := rdb.Health(); hr.State != "healthy" {
		t.Fatalf("Health after reopen = %+v, want all healthy", hr)
	}
	for key, want := range acked {
		v, ok, gerr := rdb.Get(key)
		if gerr != nil || !ok || !bytes.Equal(v, want) {
			t.Fatalf("acked key %d lost across crash+reopen: ok=%v err=%v", key, ok, gerr)
		}
	}
	if err := rdb.Put(probe, []byte("post-recovery")); err != nil {
		t.Fatalf("recovered shard %d refused a write: %v", isoTarget, err)
	}
	if err := rdb.Validate(); err != nil {
		t.Fatalf("Validate after recovery: %v", err)
	}
}
