package faultdev_test

import (
	"errors"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/core"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

func mkBlock(t *testing.T, keys ...block.Key) *block.Block {
	t.Helper()
	recs := make([]block.Record, 0, len(keys))
	for _, k := range keys {
		recs = append(recs, block.Record{Key: k, Payload: []byte{1}})
	}
	return block.New(recs)
}

func writeOne(t *testing.T, d *faultdev.Device, keys ...block.Key) storage.BlockID {
	t.Helper()
	id := d.Alloc()
	if err := d.Write(id, mkBlock(t, keys...)); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestExactTriggersCountAttempts(t *testing.T) {
	d := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
	id := writeOne(t, d, 1)

	// "Fail the next read" is expressed against the attempt counter, and
	// the faulted attempt itself advances it.
	d.FailReadAt(d.Reads() + 1)
	if _, err := d.Read(id); !errors.Is(err, faultdev.ErrInjected) {
		t.Fatalf("read error = %v, want injected", err)
	}
	if _, err := d.Read(id); !errors.Is(err, faultdev.ErrInjected) {
		t.Fatalf("trigger must persist: %v", err)
	}
	d.FailReadAt(0)
	if _, err := d.Read(id); err != nil {
		t.Fatalf("disarmed trigger still firing: %v", err)
	}

	d.FailWriteAt(d.Writes() + 1)
	id2 := d.Alloc()
	if err := d.Write(id2, mkBlock(t, 2)); !errors.Is(err, faultdev.ErrInjected) {
		t.Fatalf("write error = %v, want injected", err)
	}
	st := d.Injected()
	if st.ReadFails != 2 || st.WriteFails != 1 {
		t.Fatalf("injected stats = %+v", st)
	}
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	run := func() []bool {
		d := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{Seed: 7, WriteFailProb: 0.3})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			id := d.Alloc()
			err := d.Write(id, mkBlock(t, block.Key(i)))
			outcomes = append(outcomes, err == nil)
			if err != nil && !errors.Is(err, faultdev.ErrInjected) {
				t.Fatalf("unexpected error class: %v", err)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at write %d", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("degenerate schedule: %d/%d failures", fails, len(a))
	}
}

func TestTornWriteSurfacesErrCorrupt(t *testing.T) {
	d := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{Seed: 3, TornWriteProb: 1})
	id := writeOne(t, d, 1) // write "succeeds" — the damage is latent
	if _, err := d.Read(id); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("read error = %v, want ErrCorrupt", err)
	}
	if err := d.Peek(id, new(block.Block)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("peek error = %v, want ErrCorrupt", err)
	}
	if d.Injected().TornWrites != 1 {
		t.Fatalf("injected stats = %+v", d.Injected())
	}
	// Freeing a damaged block clears the damage with the slot.
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityCeiling(t *testing.T) {
	d := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{CapacityBlocks: 3})
	var last storage.BlockID
	var err error
	for i := 0; i < 10; i++ {
		last = d.Alloc()
		if err = d.Write(last, mkBlock(t, block.Key(i))); err != nil {
			break
		}
	}
	if !errors.Is(err, faultdev.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	if c := d.Counters(); c.Live <= 3 {
		// Alloc reserved the slot; only the write is refused, mirroring a
		// device that returns ENOSPC on the data path.
		t.Fatalf("live = %d, expected the over-capacity allocation to be visible", c.Live)
	}
	_ = last
}

func TestPowerCutCrashDropsUnsyncedAndResurrectsFrees(t *testing.T) {
	d := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{PowerCut: true})
	durable := writeOne(t, d, 1)
	alsoDurable := writeOne(t, d, 2)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}

	volatile := writeOne(t, d, 3)
	if err := d.Free(alsoDurable); err != nil { // deferred: could still be lost
		t.Fatal(err)
	}
	// The engine sees the free immediately...
	if c := d.Counters(); c.Live != 2 {
		t.Fatalf("live = %d, want 2 (durable + volatile)", c.Live)
	}
	if _, err := d.Read(alsoDurable); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("freed block readable: %v", err)
	}

	dropped, err := d.Crash()
	if err != nil || dropped != 1 {
		t.Fatalf("crash dropped %d, err %v", dropped, err)
	}
	// ...but the crash rolls the device back to the last sync: the
	// volatile write is gone and the deferred free never happened.
	if _, err := d.Read(volatile); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("unsynced write survived: %v", err)
	}
	for _, id := range []storage.BlockID{durable, alsoDurable} {
		if _, err := d.Read(id); err != nil {
			t.Fatalf("synced block %d lost: %v", id, err)
		}
	}
}

func TestPowerCutSyncAppliesDeferredFrees(t *testing.T) {
	d := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{PowerCut: true})
	id := writeOne(t, d, 1)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Durable now: a crash must not bring it back.
	if _, err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(id); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("synced free rolled back: %v", err)
	}
	// Freeing a never-synced write applies immediately: the free cannot
	// outlive a write that was itself volatile.
	volatile := writeOne(t, d, 2)
	if err := d.Free(volatile); err != nil {
		t.Fatal(err)
	}
	if dropped, err := d.Crash(); err != nil || dropped != 0 {
		t.Fatalf("crash after free-of-volatile: dropped %d, err %v", dropped, err)
	}
}

// TestPowerCutFullTreeRecovery drives the real engine over the power-cut
// device: checkpoint (export + device sync), keep writing, crash, restore
// from the checkpoint, and require the tree to validate and serve exactly
// the checkpointed contents.
func TestPowerCutFullTreeRecovery(t *testing.T) {
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{PowerCut: true})
	cfg := core.Config{
		Device:        dev,
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 4,
		K0:            2,
		Gamma:         4,
		Seed:          1,
	}
	tr, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(k block.Key) {
		t.Helper()
		tr.Put(k, []byte{byte(k)})
		if err := tr.RunCascade(); err != nil {
			t.Fatal(err)
		}
	}
	for k := block.Key(0); k < 300; k++ {
		put(k)
	}
	v, err := tr.AcquireView()
	if err != nil {
		t.Fatal(err)
	}
	st := v.Export()
	v.Release()
	if err := dev.Sync(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic: new writes and merges that free
	// checkpoint-referenced blocks. All of it must vanish on crash.
	for k := block.Key(300); k < 600; k++ {
		put(k)
	}
	if _, err := dev.Crash(); err != nil {
		t.Fatal(err)
	}

	restored, err := core.Restore(cfg, st)
	if err != nil {
		t.Fatalf("restore after power cut: %v", err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatalf("validate after power cut: %v", err)
	}
	if err := restored.ValidateAccounting(); err != nil {
		t.Fatalf("accounting after power cut: %v", err)
	}
	for k := block.Key(0); k < 300; k++ {
		v, ok, err := restored.Get(k)
		if err != nil || !ok || len(v) != 1 || v[0] != byte(k) {
			t.Fatalf("key %d after recovery: v=%v ok=%v err=%v", k, v, ok, err)
		}
	}
	for k := block.Key(300); k < 600; k++ {
		if _, ok, err := restored.Get(k); err != nil || ok {
			t.Fatalf("post-checkpoint key %d visible after crash (ok=%v err=%v)", k, ok, err)
		}
	}
}
