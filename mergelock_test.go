package lsmssd_test

// Tests for merge steps that run their block I/O off the writer lock: a
// step plans and installs under it, and writes its output blocks with only
// the shard's merge lock held. They hold a step open with a device gate
// whose Write blocks on a channel, so "while a merge writes" is a state the
// test keeps for as long as it likes.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"lsmssd"
	"lsmssd/internal/block"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/manifest"
	"lsmssd/internal/storage"
)

// writeGate decorates a device so that, while armed, the first Write
// stores its block, disarms the gate, announces itself on entered and
// waits for release. Only merge steps write data blocks, so the gate
// catches a step between its first output write and its install.
type writeGate struct {
	storage.Device
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newWriteGate() *writeGate {
	return &writeGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *writeGate) wrap(_ int, dev storage.Device) storage.Device {
	g.Device = dev
	return g
}

func (g *writeGate) Write(id storage.BlockID, b *block.Block) error {
	if err := g.Device.Write(id, b); err != nil {
		return err
	}
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		select {
		case <-g.release:
		case <-time.After(2 * testWait): // the test has failed; let teardown through
		}
	}
	return nil
}

func (g *writeGate) Sync() error {
	if sy, ok := g.Device.(storage.Syncer); ok {
		return sy.Sync()
	}
	return nil
}

// gateOptions is a single-shard store whose L0 fires at 16 records and
// whose Full policy makes a step's window all of L0 as planned.
func gateOptions(g *writeGate) lsmssd.Options {
	return lsmssd.Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  2,
		Gamma:           4,
		MergePolicy:     lsmssd.Full,
		CacheBlocks:     -1,
		DeviceWrap:      g.wrap,
	}
}

// fillUntilMerge writes keys from *next until the gate reports a merge
// step blocked in its first output write, recording each acked value.
func fillUntilMerge(t *testing.T, db *lsmssd.DB, g *writeGate, model map[uint64]string, next *uint64) {
	t.Helper()
	g.armed.Store(true)
	for {
		select {
		case <-g.entered:
			return
		default:
		}
		if *next > 10000 {
			t.Fatal("no merge step wrote a block within 10000 puts")
		}
		v := fmt.Sprintf("v%d", *next)
		if err := db.Put(*next, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[*next] = v
		*next++
		// Give the scheduler a moment once L0 fires, so the step starts
		// before L0 outgrows its stall gate.
		if *next%16 == 0 {
			select {
			case <-g.entered:
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
}

func mustRead(t *testing.T, db *lsmssd.DB, model map[uint64]string, deleted map[uint64]bool) {
	t.Helper()
	for k, want := range model {
		got, ok, err := db.Get(k)
		if err != nil || !ok || string(got) != want {
			t.Fatalf("Get(%d) = %q, %v, %v; want %q", k, got, ok, err, want)
		}
	}
	for k := range deleted {
		if got, ok, err := db.Get(k); err != nil || ok {
			t.Fatalf("Get(%d) of a deleted key = %q, %v, %v", k, got, ok, err)
		}
	}
}

// TestWritesProceedDuringMergeIO: while a merge step is blocked in its
// first output write, Put, Delete, Apply, Get and a new iterator on the
// same shard all complete — the step holds no lock they need.
func TestWritesProceedDuringMergeIO(t *testing.T) {
	g := newWriteGate()
	db, err := lsmssd.Open(gateOptions(g))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model, deleted := map[uint64]string{}, map[uint64]bool{}
	next := uint64(0)
	fillUntilMerge(t, db, g, model, &next)

	within(t, "Put during a merge's I/O", func() error {
		model[5000] = "during"
		return db.Put(5000, []byte("during"))
	})
	within(t, "Delete during a merge's I/O", func() error {
		delete(model, 1)
		deleted[1] = true
		return db.Delete(1)
	})
	within(t, "Apply during a merge's I/O", func() error {
		b := db.NewBatch()
		b.Put(5001, []byte("batched"))
		b.Delete(2)
		model[5001] = "batched"
		delete(model, 2)
		deleted[2] = true
		return db.Apply(b)
	})
	within(t, "Get during a merge's I/O", func() error {
		if v, ok, err := db.Get(5000); err != nil || !ok || string(v) != "during" {
			return fmt.Errorf("Get(5000) = %q, %v, %v", v, ok, err)
		}
		return nil
	})
	within(t, "an iterator during a merge's I/O", func() error {
		it, err := db.NewIterator(0, ^uint64(0))
		if err != nil {
			return err
		}
		n := 0
		for it.Next() {
			n++
		}
		if n != len(model) {
			return errors.Join(fmt.Errorf("iterator saw %d keys, want %d", n, len(model)), it.Close())
		}
		return it.Close()
	})

	close(g.release)
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	mustRead(t, db, model, deleted)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowRewrittenDuringMerge: keys inside the blocked step's L0 window
// are overwritten or deleted before its install. The install removes from
// L0 only the records the step merged, so the newer ones stay and shadow
// the merged copies: every key reads its newest value and deleted keys
// stay deleted.
func TestWindowRewrittenDuringMerge(t *testing.T) {
	g := newWriteGate()
	db, err := lsmssd.Open(gateOptions(g))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	model, deleted := map[uint64]string{}, map[uint64]bool{}
	next := uint64(0)
	fillUntilMerge(t, db, g, model, &next)

	// Under Full the window is all of L0 as planned, and the keys below
	// 16 are the first L0 fill: inside it.
	for k := uint64(0); k < 16; k++ {
		switch k % 3 {
		case 0:
			v := fmt.Sprintf("rewritten%d", k)
			if err := db.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 1:
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
			deleted[k] = true
		}
	}
	close(g.release)
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	mustRead(t, db, model, deleted)
	// Push everything down through further merges: the shadowing must
	// survive them too.
	for k := uint64(100); k < 400; k++ {
		if err := db.Put(k, []byte("filler")); err != nil {
			t.Fatal(err)
		}
		model[k] = "filler"
	}
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	mustRead(t, db, model, deleted)
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeLockHoldExcludesBlockIO: with 25 ms added to every device
// write, a merge step takes tens of milliseconds, yet it holds the writer
// lock for under one: only planning and installing run under it.
func TestMergeLockHoldExcludesBlockIO(t *testing.T) {
	opts := gateOptions(newWriteGate())
	opts.DeviceWrap = func(_ int, dev storage.Device) storage.Device {
		return faultdev.Wrap(dev, faultdev.Options{Latency: 25 * time.Millisecond})
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	events := make(chan lsmssd.MergeEvent, 64)
	db.Subscribe(func(ev lsmssd.Event) {
		if me, ok := ev.(lsmssd.MergeEvent); ok {
			select {
			case events <- me:
			default:
			}
		}
	})
	for k := uint64(0); k < 40; k++ {
		if err := db.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	select {
	case me := <-events:
		if me.Duration < 20*time.Millisecond {
			t.Errorf("merge L%d→L%d took %v; the injected latency should make it at least 20ms", me.From, me.To, me.Duration)
		}
		if me.LockHold <= 0 || me.LockHold >= time.Millisecond {
			t.Errorf("merge L%d→L%d held the writer lock %v of its %v; want under 1ms", me.From, me.To, me.LockHold, me.Duration)
		}
	case <-time.After(testWait):
		t.Fatal("no MergeEvent delivered")
	}
}

// copyStore copies the store's files (device, manifest, log segments) into
// dir and returns the copy's path: the disk image a power cut would leave
// at this instant.
func copyStore(t *testing.T, path, dir string) string {
	t.Helper()
	files, err := filepath.Glob(path + "*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := copyFile(f, filepath.Join(dir, filepath.Base(f))); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, filepath.Base(path))
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		return errors.Join(err, out.Close())
	}
	return out.Close()
}

// manifestBlocks counts the blocks the store's manifest names.
func manifestBlocks(t *testing.T, path string) int64 {
	t.Helper()
	st, err := manifest.Load(path + ".manifest")
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for _, runs := range st.Runs {
		for _, metas := range runs {
			n += int64(len(metas))
		}
	}
	return n
}

// TestCrashMidMergeReclaimsOrphans cuts power 20 times between a merge
// step's first output write and its install — by copying the store's files
// while the step is held there — and reopens the copy each time. The output
// blocks are orphans no manifest names. Each reopen must validate, serve
// every acknowledged write, and hold exactly the blocks its manifest
// names: orphans return to the allocator instead of accumulating.
func TestCrashMidMergeReclaimsOrphans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.blk")
	model := map[uint64]string{}
	next := uint64(0)
	var slot int64 // device file bytes per block
	for cycle := 0; cycle < 20; cycle++ {
		g := newWriteGate()
		opts := gateOptions(g)
		opts.Path = path
		opts.WAL = lsmssd.WALOptions{Sync: lsmssd.SyncEvery}
		db, err := lsmssd.Open(opts)
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		if err := lsmssd.DrainCompaction(db); err != nil {
			t.Fatal(err)
		}
		mustRead(t, db, model, nil)
		if err := db.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if live, named := db.Stats().LiveBlocks, manifestBlocks(t, path); live != named {
			t.Fatalf("cycle %d: %d live blocks, the manifest names %d", cycle, live, named)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Orphans are reused, so the file holds the live blocks and no
		// more: it grows with the data, not with the number of crashes.
		live := db.Stats().LiveBlocks
		if slot == 0 && live > 0 {
			slot = info.Size() / live
		}
		if info.Size() > (live+4)*slot {
			t.Fatalf("cycle %d: device file holds %d bytes for %d live blocks of %d bytes", cycle, info.Size(), live, slot)
		}

		fillUntilMerge(t, db, g, model, &next)
		crashed := copyStore(t, path, t.TempDir())
		close(g.release)
		if err := db.Crash(); err != nil {
			t.Fatal(err)
		}
		path = crashed
	}
}
