package invariant_test

import (
	"math/rand"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/invariant"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// TestPoliciesUnderAudit drives every merge policy with the invariant
// auditor installed after each merge and level growth, then asserts the
// strict steady-state audit at the end. A policy bug that drifts a waste
// constraint (the silent failure mode of compaction bugs) fails here at
// the first violating merge, not at the end of the run.
func TestPoliciesUnderAudit(t *testing.T) {
	policies := map[string]func() *policy.Policy{
		"Full":       func() *policy.Policy { return policy.NewFull(true) },
		"RR":         func() *policy.Policy { return policy.NewRR(0.25, true) },
		"ChooseBest": func() *policy.Policy { return policy.NewChooseBest(0.25, true) },
		"TestMixed":  func() *policy.Policy { return policy.NewTestMixed(0.25, true) },
		"Mixed": func() *policy.Policy {
			return policy.NewMixed(0.25, true, map[int]float64{2: 0.5}, true)
		},
	}
	for name, mk := range policies {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			audits := 0
			cfg := core.Config{
				Device:        storage.NewMemDevice(),
				Policy:        mk(),
				BlockCapacity: 4,
				K0:            2,
				Gamma:         4,
				Epsilon:       0.2,
				Seed:          1,
				Auditor: func(tr *core.Tree) error {
					audits++
					return invariant.Check(tr, invariant.Options{MidCascade: true})
				},
			}
			tr, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			drv := compaction.Driver{Tree: tr}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				k := block.Key(rng.Intn(3000))
				if rng.Intn(4) == 0 {
					if err := drv.Delete(k); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				} else if err := drv.Put(k, []byte{byte(i), byte(i >> 8)}); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if audits == 0 {
				t.Fatal("no merges were audited")
			}
			if err := invariant.CheckTree(tr); err != nil {
				t.Fatalf("steady-state audit after %d per-merge audits: %v", audits, err)
			}
		})
	}
}
