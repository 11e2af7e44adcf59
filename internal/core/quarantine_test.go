package core

import (
	"errors"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// quarantineTree builds a small tree over a faultdev-wrapped MemDevice,
// loaded with enough records that L1 holds several blocks.
func quarantineTree(t *testing.T, cacheBlocks int) (*Tree, *faultdev.Device) {
	t.Helper()
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{Seed: 1})
	tr, err := New(Config{
		Device:        dev,
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 4,
		K0:            2,
		Gamma:         4,
		CacheBlocks:   cacheBlocks,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 200; k++ {
		if err := putC(tr, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	return tr, dev
}

// firstLevelBlock returns the ID of the first block of L1.
func firstLevelBlock(t *testing.T, tr *Tree) storage.BlockID {
	t.Helper()
	metas := tr.Level(1).Index().All()
	if len(metas) == 0 {
		t.Fatal("L1 empty")
	}
	return metas[0].ID
}

func TestQuarantineBlocksMerges(t *testing.T) {
	tr, dev := quarantineTree(t, 0)
	id := firstLevelBlock(t, tr)
	dev.Corrupt(id)
	if !tr.Quarantine(id, 1, "test corruption") {
		t.Fatal("fresh quarantine rejected")
	}
	if tr.Quarantine(id, 1, "again") {
		t.Fatal("duplicate quarantine accepted")
	}
	if n := tr.QuarantinedCount(); n != 1 {
		t.Fatalf("QuarantinedCount = %d", n)
	}
	// Drive writes until the cascade wants to merge into L1: it must
	// refuse with ErrQuarantined instead of reading the damaged block.
	var sawErr error
	for k := block.Key(1000); k < 3000; k++ {
		if err := putC(tr, k, []byte{1}); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		t.Fatal("merges over a quarantined block never refused")
	}
	if !errors.Is(sawErr, ErrQuarantined) {
		t.Fatalf("error lost provenance: %v", sawErr)
	}
	// The quarantined block must still be pinned (referenced and live).
	if _, _, _, ok := tr.locateBlock(id); !ok {
		t.Fatal("quarantined block vanished from the tree")
	}
}

func TestRepairFromCacheCopy(t *testing.T) {
	tr, dev := quarantineTree(t, 1024)
	id := firstLevelBlock(t, tr)
	// Warm the cache with the block's content, then damage the device
	// copy underneath it.
	if _, err := tr.Cache().Load(id, 0, ^block.Key(0), new(block.Block)); err != nil {
		t.Fatal(err)
	}
	dev.Corrupt(id)
	tr.Quarantine(id, 1, "bit flip")
	repaired, err := tr.RepairBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if !repaired {
		t.Fatal("repair failed despite a cached surviving copy")
	}
	if n := tr.QuarantinedCount(); n != 0 {
		t.Fatalf("quarantine not lifted: %d entries", n)
	}
	// The damaged ID must no longer be referenced; contents must verify.
	if _, _, _, ok := tr.locateBlock(id); ok {
		t.Fatal("damaged block still referenced after repair")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after repair: %v", err)
	}
	// And the tree keeps working: merges into L1 proceed again.
	for k := block.Key(1000); k < 2000; k++ {
		if err := putC(tr, k, []byte{1}); err != nil {
			t.Fatalf("put after repair: %v", err)
		}
	}
}

func TestRepairWithoutSurvivingCopyFails(t *testing.T) {
	tr, dev := quarantineTree(t, 0) // no cache: no surviving copy anywhere
	id := firstLevelBlock(t, tr)
	dev.Corrupt(id)
	tr.Quarantine(id, 1, "bit flip")
	repaired, err := tr.RepairBlock(id)
	if err != nil {
		t.Fatal(err)
	}
	if repaired {
		t.Fatal("repair claimed success with no surviving copy")
	}
	if n := tr.QuarantinedCount(); n != 1 {
		t.Fatalf("quarantine must persist, got %d entries", n)
	}
}

func TestRepairOfUnreferencedBlockResolves(t *testing.T) {
	tr, _ := quarantineTree(t, 0)
	// Quarantine an ID the tree does not reference: resolution must be
	// immediate (nothing to repair, nothing to pin).
	tr.Quarantine(storage.BlockID(1<<40), 1, "stale")
	repaired, err := tr.RepairBlock(storage.BlockID(1 << 40))
	if err != nil || !repaired {
		t.Fatalf("stale quarantine not resolved: %v %v", repaired, err)
	}
	if n := tr.QuarantinedCount(); n != 0 {
		t.Fatalf("stale entry survived: %d", n)
	}
}
