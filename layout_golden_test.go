package lsmssd

import (
	"math/rand"
	"testing"
)

// driveGolden runs the fixed deterministic workload of the golden table:
// 6000 seeded operations (~1/6 deletes) over a small key space against an
// in-memory single-shard engine, draining the compaction queue after every
// write, so every merge the cascade runs — and therefore every device
// write — is a pure function of the options.
func driveGolden(t *testing.T, opts Options) int64 {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 32)
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(5000))
		if rng.Intn(6) == 0 {
			if err := db.Delete(k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		} else if err := db.Put(k, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if err := DrainCompaction(db); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return db.Stats().BlocksWritten
}

// TestGoldenBlocksWrittenLeveling pins the exact device write counts of
// every policy suite under the (default) leveling layout. These numbers
// were captured before the compaction design space was opened into
// trigger/granularity/movement/layout axes; the leveling layout must
// reproduce them byte for byte — any drift means the refactor changed the
// paper's merge sequence.
func TestGoldenBlocksWrittenLeveling(t *testing.T) {
	base := Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  4,
		Gamma:           4,
		Delta:           0.25,
		CacheBlocks:     -1,
		Seed:            1,
	}
	cases := []struct {
		name    string
		policy  Policy
		noPres  bool
		taus    map[int]float64
		beta    bool
		blocksW int64
	}{
		{name: "Full", policy: Full, blocksW: 4961},
		{name: "Full-P", policy: Full, noPres: true, blocksW: 5337},
		{name: "RR", policy: RR, blocksW: 5184},
		{name: "RR-P", policy: RR, noPres: true, blocksW: 5507},
		{name: "ChooseBest", policy: ChooseBest, blocksW: 4855},
		{name: "ChooseBest-P", policy: ChooseBest, noPres: true, blocksW: 5077},
		{name: "TestMixed", policy: TestMixed, blocksW: 4894},
		{name: "Mixed", policy: Mixed, blocksW: 4855},
		{name: "Mixed-tuned", policy: Mixed, taus: map[int]float64{2: 0.5}, beta: true, blocksW: 4720},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			opts.MergePolicy = tc.policy
			opts.DisablePreserve = tc.noPres
			opts.MixedTaus = tc.taus
			opts.MixedBeta = tc.beta
			if got := driveGolden(t, opts); got != tc.blocksW {
				t.Errorf("%s: BlocksWritten = %d, want %d", tc.name, got, tc.blocksW)
			}
		})
	}
}
