package lsmssd_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lsmssd"
	"lsmssd/internal/crashloop"
)

// fileOpts returns file-backed options sized so records reach the
// storage levels after a few dozen writes. Their log never fsyncs: the
// tests using them reopen only after Close.
func fileOpts(path string) lsmssd.Options {
	return lsmssd.Options{
		Path:            path,
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
		WAL:             lsmssd.WALOptions{Sync: lsmssd.SyncNever},
	}
}

func walOpts(path string, sync lsmssd.SyncPolicy) lsmssd.Options {
	o := fileOpts(path)
	o.WAL = lsmssd.WALOptions{Sync: sync, SegmentBytes: 8 << 10}
	return o
}

// TestCrashLoopSyncEvery is the headline durability gate: at least 50
// randomized power cuts, every one recovering with zero acked-write loss
// and a fully validated store.
func TestCrashLoopSyncEvery(t *testing.T) {
	report, err := crashloop.Run(crashloop.Config{
		Dir:       t.TempDir(),
		Iters:     55,
		MaxOps:    60,
		Seed:      1,
		KeySpace:  256,
		Sync:      lsmssd.SyncEvery,
		CrashProb: 1.0, // every cycle is a power cut
		TornTail:  true,
	})
	t.Log(report)
	if err != nil {
		t.Fatal(err)
	}
	if report.Crashes < 50 {
		t.Fatalf("only %d power cuts exercised, want at least 50", report.Crashes)
	}
	if report.LostFrames != 0 {
		t.Fatalf("SyncEvery lost %d acked frames", report.LostFrames)
	}
	if report.TornInjected == 0 || report.TornBytes == 0 {
		t.Errorf("no torn tails were exercised (injected %d, truncated %d bytes)",
			report.TornInjected, report.TornBytes)
	}
	if report.Recoveries == 0 {
		t.Error("no recovery ever replayed frames")
	}
	if report.FilterSkips == 0 {
		t.Error("no verification read went through a rebuilt Bloom filter")
	}
}

// TestCrashLoopSyncInterval checks the weaker policy's contract: crashes
// may lose the un-synced suffix, but the recovered state is always a
// consistent prefix of the acked history and never regresses past a
// checkpoint.
func TestCrashLoopSyncInterval(t *testing.T) {
	report, err := crashloop.Run(crashloop.Config{
		Dir:      t.TempDir(),
		Iters:    20,
		MaxOps:   80,
		Seed:     2,
		KeySpace: 256,
		Sync:     lsmssd.SyncInterval,
		Interval: time.Millisecond,
		TornTail: true,
	})
	t.Log(report)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashLoopSyncNever: no per-write durability at all, yet recovery
// must still land on a consistent acked prefix (checkpoints and sealed
// segments are the only durability points).
func TestCrashLoopSyncNever(t *testing.T) {
	report, err := crashloop.Run(crashloop.Config{
		Dir:      t.TempDir(),
		Iters:    15,
		MaxOps:   80,
		Seed:     3,
		KeySpace: 256,
		Sync:     lsmssd.SyncNever,
		TornTail: true,
	})
	t.Log(report)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashLoopLayouts runs the power-cut harness over the non-leveling
// layouts under Paranoid: recovery must restore the tiered multi-run
// structure (via the v4 manifest plus WAL replay) with zero acked-write
// loss and a fully validated store.
func TestCrashLoopLayouts(t *testing.T) {
	for _, lc := range []struct {
		name   string
		layout lsmssd.Layout
	}{
		{"tiering", lsmssd.Tiering},
		{"lazy", lsmssd.LazyLeveling},
	} {
		t.Run(lc.name, func(t *testing.T) {
			report, err := crashloop.Run(crashloop.Config{
				Dir:       t.TempDir(),
				Iters:     25,
				MaxOps:    60,
				Seed:      4,
				KeySpace:  256,
				Sync:      lsmssd.SyncEvery,
				CrashProb: 0.9,
				TornTail:  true,
				Paranoid:  true,
				Layout:    lc.layout,
				TierRuns:  3,
			})
			t.Log(report)
			if err != nil {
				t.Fatal(err)
			}
			if report.LostFrames != 0 {
				t.Fatalf("SyncEvery lost %d acked frames", report.LostFrames)
			}
			if report.Crashes == 0 {
				t.Error("no power cuts exercised")
			}
		})
	}
}

// TestWALRecoveryBasic pins the direct story: put, crash, reopen, and the
// acked writes are back, with Stats reporting the replay.
func TestWALRecoveryBasic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	db, err := lsmssd.Open(walOpts(path, lsmssd.SyncEvery))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := db.Put(i, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatalf("crash teardown: %v", err)
	}

	db, err = lsmssd.Open(walOpts(path, lsmssd.SyncEvery))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	s := db.Stats()
	if !s.WAL.Recovery.Recovered || s.WAL.Recovery.Frames == 0 {
		t.Fatalf("recovery stats report no replay: %+v", s.WAL.Recovery)
	}
	for i := uint64(0); i < 300; i++ {
		v, ok, err := db.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			if ok {
				t.Fatalf("deleted key 7 resurrected with %q", v)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d: got (%q, %v) after recovery", i, v, ok)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTailTruncated: garbage appended to the last segment (a frame
// torn mid-write by the power cut) is cleanly truncated, the intact
// prefix replays, and the log is appendable again.
func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	db, err := lsmssd.Open(walOpts(path, lsmssd.SyncEvery))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := db.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: half a frame of garbage at the end of the newest
	// segment.
	segs, err := filepath.Glob(path + ".wal.*")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x13, 0x37, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = lsmssd.Open(walOpts(path, lsmssd.SyncEvery))
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer db.Close()
	s := db.Stats()
	if s.WAL.Recovery.TornBytes == 0 {
		t.Fatalf("recovery reports no torn bytes: %+v", s.WAL.Recovery)
	}
	for i := uint64(0); i < 50; i++ {
		if _, ok, err := db.Get(i); err != nil || !ok {
			t.Fatalf("key %d lost to the torn tail (ok=%v, err=%v)", i, ok, err)
		}
	}
	// The truncated log must accept appends again.
	if err := db.Put(1000, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptBlockSurfacesErrCorrupt: a bit flip in the device file is
// detected by the per-block checksum and surfaces as lsmssd.ErrCorrupt
// through the public read path, never as silently wrong data.
func TestCorruptBlockSurfacesErrCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	opts := fileOpts(path)
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := db.Put(i, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte early in every block slot (offset 11 is well inside
	// the encoded record area of any non-empty block).
	const slot = 4096 + 8 // BlockSize + the checksum trailer
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	for off := int64(11); off < fi.Size(); off += slot {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		buf[0] ^= 0xff
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sawCorrupt := false
	for i := uint64(0); i < 2000 && !sawCorrupt; i += 17 {
		_, _, err := db.Get(i)
		if err != nil {
			if !errors.Is(err, lsmssd.ErrCorrupt) {
				t.Fatalf("corruption surfaced as %v, not ErrCorrupt", err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("no Get surfaced the corrupted blocks")
	}
}

// TestWALKeepsBlocksWrittenIdentical pins the paper-fidelity guarantee:
// the WAL lives entirely outside the block device, so enabling it must
// not change the experiment's primary metric by a single block. Both
// stores drain compaction after every write, so their merge sequences are
// the paper's.
func TestWALKeepsBlocksWrittenIdentical(t *testing.T) {
	workload := func(db *lsmssd.DB) {
		t.Helper()
		drain := func() {
			if err := lsmssd.DrainCompaction(db); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 3000; i++ {
			if err := db.Put(i*7%1024, []byte("workload-value")); err != nil {
				t.Fatal(err)
			}
			drain()
			if i%5 == 4 {
				if err := db.Delete(i % 512); err != nil {
					t.Fatal(err)
				}
				drain()
			}
		}
	}

	mem, err := lsmssd.Open(lsmssd.Options{RecordsPerBlock: 16, MemtableBlocks: 4, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	workload(mem)
	memWrites := mem.Stats().BlocksWritten
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "store.db")
	walDB, err := lsmssd.Open(walOpts(path, lsmssd.SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	workload(walDB)
	walWrites := walDB.Stats().BlocksWritten
	if err := walDB.Close(); err != nil {
		t.Fatal(err)
	}

	if memWrites != walWrites {
		t.Fatalf("BlocksWritten diverged: %d without WAL, %d with WAL", memWrites, walWrites)
	}
}

// TestZeroWALOptionsCrashReopens: a store opened with nothing but its
// shape and Path logs every write with SyncEvery, and a checkpoint syncs the
// device before its manifest while freed slots wait for the next one. So
// merges after the last checkpoint cannot overwrite a block its manifest
// names, and a crash after them loses nothing: the store reopens, validates
// and serves every key written before the crash.
func TestZeroWALOptionsCrashReopens(t *testing.T) {
	opts := lsmssd.Options{
		Path:            filepath.Join(t.TempDir(), "store.db"),
		RecordsPerBlock: 16,
		MemtableBlocks:  4,
		Gamma:           4,
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i uint64) uint64 { return i * 2654435761 % (1 << 32) }
	put := func(lo, hi uint64) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := db.Put(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := lsmssd.DrainCompaction(db); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 4000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(4000, 8000) // merges free the checkpointed blocks
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer db.Close()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8000; i++ {
		v, ok, err := db.Get(key(i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key of write %d after the crash: %q, found=%v, err=%v", i, v, ok, err)
		}
	}
}
