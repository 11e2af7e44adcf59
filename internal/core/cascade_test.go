package core

import (
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/policy"
)

// putC and delC preserve the pre-scheduler synchronous semantics the
// package tests were written against: mutate, then drain the overflow
// cascade — exactly what compaction.Driver does for the experiment
// harness. Production code never calls Put without a paired cascade
// (lsmlint's compaction-step rule pins the cascade to internal/compaction).
func putC(tr *Tree, k block.Key, payload []byte) error {
	tr.Put(k, payload)
	return tr.RunCascade()
}

func delC(tr *Tree, k block.Key) error {
	tr.Delete(k)
	return tr.RunCascade()
}

func TestPutAloneDoesNotMerge(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.5, true)))
	if err != nil {
		t.Fatal(err)
	}
	// Mutations only land in L0 now; without a cascade the tree must
	// report the backlog but perform no merge I/O.
	for k := block.Key(0); k < 100; k++ {
		tr.Put(k, []byte{byte(k)})
	}
	if got := tr.dev.Counters().Writes; got != 0 {
		t.Fatalf("Put alone wrote %d blocks; merges must be caller-driven", got)
	}
	if n, _ := tr.CompactionBacklog(); n == 0 {
		t.Fatal("L0 over capacity but CompactionBacklog() = 0")
	}
	// Readers still see everything meanwhile.
	for k := block.Key(0); k < 100; k++ {
		if _, ok, err := tr.Get(k); err != nil || !ok {
			t.Fatalf("Get(%d) before cascade: ok=%v err=%v", k, ok, err)
		}
	}
}

// TestLevelOverflowTrigger pins the paper's overflow rule as fires states
// it, under testConfig's B = 4, K0 = 2, Γ = 4: L0 fires at 8 records, L1 at
// K1 = 8 required blocks, and a tiered L1 also at its run budget T = 3. L0
// is drained by hand, so L1 fills past its own trigger with nothing
// handling it.
func TestLevelOverflowTrigger(t *testing.T) {
	for _, p := range []*policy.Policy{
		policy.NewChooseBest(0.5, true),
		policy.NewChooseBest(0.5, true).WithLayout(policy.Layout{Kind: policy.Tiering, TierRuns: 3}),
	} {
		tr, err := New(testConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		budgetFired := false
		for k := block.Key(0); tr.slots[0].requiredBlocks() < 8; k++ {
			if got, want := tr.fires(0), tr.mem.Len() >= 8; got != want {
				t.Fatalf("%s: L0 at %d records fires=%v", p.Name(), tr.mem.Len(), got)
			}
			runs, size := len(tr.slots[0].runs), tr.slots[0].requiredBlocks()
			want := size >= 8 || (tr.tiered(1) && runs >= 3)
			if got := tr.fires(1); got != want {
				t.Fatalf("%s: L1 at %d blocks in %d runs fires=%v", p.Name(), size, runs, got)
			}
			budgetFired = budgetFired || (want && size < 8)
			if tr.fires(0) {
				// L0 fires, so the step is L0's merge or flush.
				if _, err := tr.CompactionStep(); err != nil {
					t.Fatal(err)
				}
			}
			tr.Put(k, []byte{1})
		}
		if !tr.fires(1) {
			t.Errorf("%s: L1 at capacity does not fire", p.Name())
		}
		if budgetFired != tr.tiered(1) {
			t.Errorf("%s: fired on the run budget alone = %v, want %v", p.Name(), budgetFired, tr.tiered(1))
		}
	}
}

func TestCompactionStepResumable(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.5, true)))
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 200; k++ {
		tr.Put(k, []byte{1})
	}
	// Single-stepping to quiescence must terminate and leave the same
	// steady state RunCascade guarantees.
	steps := 0
	for {
		acted, err := tr.CompactionStep()
		if err != nil {
			t.Fatal(err)
		}
		if !acted {
			break
		}
		steps++
		if steps > 10_000 {
			t.Fatal("cascade did not converge")
		}
	}
	if steps == 0 {
		t.Fatal("no cascade steps ran for 200 records over an 8-record L0")
	}
	if got, _ := tr.CompactionBacklog(); got != 0 {
		t.Fatalf("backlog = %d after quiescence, want 0", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStepSequenceMatchesRunCascade(t *testing.T) {
	// Byte-identical write accounting between per-mutation RunCascade and
	// explicit single-stepping: both must produce the same device write
	// counter for the same inputs (same policy, same seed).
	run := func(step bool) int64 {
		tr, err := New(testConfig(policy.NewChooseBest(0.25, true)))
		if err != nil {
			t.Fatal(err)
		}
		for k := block.Key(0); k < 500; k++ {
			key := (k * 7919) % 1000
			tr.Put(key, []byte{byte(k)})
			if step {
				for {
					acted, err := tr.CompactionStep()
					if err != nil {
						t.Fatal(err)
					}
					if !acted {
						break
					}
				}
			} else if err := tr.RunCascade(); err != nil {
				t.Fatal(err)
			}
		}
		return tr.dev.Counters().Writes
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("RunCascade wrote %d blocks, single-stepping wrote %d; sequences diverged", a, b)
	}
}
