package lsmssd

import (
	"maps"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/learn"
	"lsmssd/internal/storage"
	"lsmssd/internal/workload"
)

// ShardMixedParams is MixedParams for shard i. It is exported from a test
// file so the external test package can check every shard.
func ShardMixedParams(db *DB, i int) (taus map[int]float64, beta bool, ok bool) {
	return db.shards[i].mixedParams()
}

// drainedStore writes to a DB and drains its compaction after every write:
// the paper's synchronous merge sequence through the public API.
type drainedStore struct{ db *DB }

func (s drainedStore) Put(k block.Key, v []byte) error {
	if err := s.db.Put(uint64(k), v); err != nil {
		return err
	}
	return DrainCompaction(s.db)
}

func (s drainedStore) Delete(k block.Key) error {
	if err := s.db.Delete(uint64(k)); err != nil {
		return err
	}
	return DrainCompaction(s.db)
}

// TestTuneMixedOneShardMatchesBareTree: on one shard, TuneMixed learns
// through the write path exactly what the learner learns on a bare tree of
// the same configuration, policy and preload, fed the same stream — the
// same parameters from the same measurements over the same bytes, at the
// same block writes. The tree is tall enough (h = 4) that τ₂ is learned
// as well as β.
func TestTuneMixedOneShardMatchesBareTree(t *testing.T) {
	db, err := Open(Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  2,
		Gamma:           3,
		Delta:           0.25,
		CacheBlocks:     -1,
		MergePolicy:     Mixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg := db.shards[0].tree.Config()
	cfg.Policy = db.opts.buildPolicy()
	dev := storage.NewMemDevice()
	cfg.Device, cfg.Bus, cfg.Lat = dev, nil, nil
	tree, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cfg.Policy.Mixed()

	stream := func() workload.Generator {
		return workload.NewUniform(workload.UniformConfig{
			KeySpace: 1 << 40, PayloadSize: 20, InsertRatio: 0.5, TargetKeys: 320, Seed: 9,
		})
	}
	dbGen, treeGen := stream(), stream()
	if _, err := workload.DriveN(dbGen, drainedStore{db}, 900); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.DriveN(treeGen, compaction.Driver{Tree: tree}, 900); err != nil {
		t.Fatal(err)
	}
	if h := tree.Height(); h != 4 || db.Stats().Height != h {
		t.Fatalf("heights: tree %d, DB %d; want 4", h, db.Stats().Height)
	}

	got, err := db.TuneMixed(func() (Request, bool) {
		r, ok := dbGen.Next()
		return Request{Delete: r.Op == workload.Delete, Key: uint64(r.Key), Value: r.Payload}, ok
	}, TuneOptions{BetaWindowBytes: 1 << 18, MaxBytesPerCycle: 1 << 26})
	if err != nil {
		t.Fatal(err)
	}
	want, err := learn.Learn(learn.Tree(tree, m), treeGen, learn.Options{
		BetaWindowBytes: 1 << 18, MaxBytesPerCycle: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want.Taus[2]; !ok {
		t.Fatalf("the bare tree learned no τ2: %+v", want)
	}
	t.Logf("bare tree learned %+v", want)
	if !maps.Equal(got.Taus, want.Taus) || got.Beta != want.Beta ||
		got.Measurements != want.Measurements || got.BytesDriven != want.BytesDriven {
		t.Errorf("TuneMixed learned %+v, the bare tree %+v", got, want)
	}
	if got, want := db.Stats().BlocksWritten, dev.Counters().Writes; got != want {
		t.Errorf("blocks written: DB %d, bare tree %d", got, want)
	}
}
