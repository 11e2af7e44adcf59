// Package experiments reconstructs the paper's evaluation (Section V):
// every figure has a function here that builds the index, drives the
// workload to the paper's steady-state protocol, and reports the same
// rows/series the paper plots. The harness cmd/lsmbench and the repo's
// benchmarks are thin wrappers over this package.
//
// Sizes are expressed in the paper's units (dataset megabytes at the
// paper's 104-byte records) and scaled down by a configurable factor that
// preserves the geometry — the dataset/K0 ratio, Γ, δ, ε — which is what
// determines level counts, merge frequencies, and therefore the *shape* of
// every result. See DESIGN.md for the substitution argument.
package experiments

import (
	"fmt"

	"lsmssd/internal/block"
	"lsmssd/internal/core"
	"lsmssd/internal/obs"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
	"lsmssd/internal/workload"
)

// Params carries the cross-experiment configuration.
type Params struct {
	// Scale shrinks every byte quantity of the paper's setup (K0,
	// dataset sizes, measurement windows). 1.0 reproduces the paper's
	// sizes. The default 0.05 is the smallest scale at which the partial
	// policies' merge windows (δK blocks) keep enough granularity to
	// behave as in the paper; it runs every figure on a laptop in tens
	// of minutes.
	Scale float64
	// BlockSize in bytes (default 4096).
	BlockSize int
	// KeySpace for Uniform/Normal keys (default 1e9, the paper's).
	KeySpace uint64
	// Gamma, Epsilon as in the paper (defaults 10, 0.2).
	Gamma   int
	Epsilon float64
	// Seed drives all randomness.
	Seed int64
	// Bus, when non-nil, is attached to every tree the harness builds, so
	// subscribed sinks receive the per-merge trace; measurement windows are
	// bracketed with RunEvent markers (see cmd/lsmbench -trace). Leave nil
	// for untraced runs — the engine then constructs no events at all.
	Bus *obs.Bus
}

// WithDefaults fills unset fields.
func (p Params) WithDefaults() Params {
	if p.Scale == 0 {
		p.Scale = 0.05
	}
	if p.BlockSize == 0 {
		p.BlockSize = 4096
	}
	if p.KeySpace == 0 {
		p.KeySpace = 1_000_000_000
	}
	if p.Gamma == 0 {
		p.Gamma = 10
	}
	if p.Epsilon == 0 {
		p.Epsilon = 0.2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

const mib = 1 << 20

// blocksForMB converts a paper-scale size in MB to a scaled block count.
func (p Params) blocksForMB(mb float64) int {
	n := int(mb * mib * p.Scale / float64(p.BlockSize))
	if n < 2 {
		n = 2
	}
	return n
}

// effectiveScale returns the scale actually realized for a run whose
// memtable is k0MB at paper scale: clamping the scaled K0 to at least two
// blocks can raise the effective scale above p.Scale, and every other
// size in the run must follow it so the dataset/K0 ratio — which fixes
// the level geometry — is preserved exactly.
func (p Params) effectiveScale(k0MB float64) float64 {
	return float64(p.blocksForMB(k0MB)*p.BlockSize) / (k0MB * mib)
}

// recordsForMBEff converts a paper-scale dataset size in MB to a record
// count under the given effective scale.
func recordsForMBEff(mb float64, payload int, eff float64) int {
	n := int(mb * mib * eff / float64(8+payload))
	if n < 16 {
		n = 16
	}
	return n
}

// bytesEff converts paper-scale MB of requests to bytes under the given
// effective scale.
func bytesEff(mb, eff float64) int64 {
	n := int64(mb * mib * eff)
	if n < 4096 {
		n = 4096
	}
	return n
}

// PolicyNames lists the seven policies of the paper's evaluation, in its
// plotting order.
var PolicyNames = []string{
	"Full-P", "Full", "RR-P", "RR", "ChooseBest-P", "ChooseBest", "Mixed",
}

// BuildPolicy constructs a policy by its paper name.
func BuildPolicy(name string, delta float64) (*policy.Policy, error) {
	switch name {
	case "Full":
		return policy.NewFull(true), nil
	case "Full-P":
		return policy.NewFull(false), nil
	case "RR":
		return policy.NewRR(delta, true), nil
	case "RR-P":
		return policy.NewRR(delta, false), nil
	case "ChooseBest":
		return policy.NewChooseBest(delta, true), nil
	case "ChooseBest-P":
		return policy.NewChooseBest(delta, false), nil
	case "ChooseBestPart":
		return policy.NewChooseBestPartitioned(delta, true), nil
	case "ChooseBestPart-P":
		return policy.NewChooseBestPartitioned(delta, false), nil
	case "TestMixed":
		return policy.NewTestMixed(delta, true), nil
	case "TestMixed-P":
		return policy.NewTestMixed(delta, false), nil
	case "Mixed":
		return policy.NewMixed(delta, true, nil, false), nil
	case "Mixed-P":
		return policy.NewMixed(delta, false, nil, false), nil
	}
	return nil, fmt.Errorf("experiments: unknown policy %q", name)
}

// WorkloadKind selects the request generator family.
type WorkloadKind int

// Workload kinds of Section V.
const (
	Uniform WorkloadKind = iota
	Normal
	TPC
)

func (k WorkloadKind) String() string {
	switch k {
	case Uniform:
		return "Uniform"
	case Normal:
		return "Normal"
	case TPC:
		return "TPC"
	}
	return "unknown"
}

// WorkloadSpec fully describes a workload instance.
type WorkloadSpec struct {
	Kind          WorkloadKind
	Sigma         float64 // Normal: σ as a fraction of the key space
	Omega         int     // Normal: inserts per mean move
	PayloadSize   int
	InsertRatio   float64
	TargetRecords int // pinned steady-state size; 0 = free-running ratio
	Seed          int64
}

// New builds the generator.
func (s WorkloadSpec) New(keySpace uint64) workload.Generator {
	switch s.Kind {
	case Normal:
		return workload.NewNormal(workload.NormalConfig{
			KeySpace:    keySpace,
			PayloadSize: s.PayloadSize,
			InsertRatio: s.InsertRatio,
			Sigma:       s.Sigma,
			Omega:       s.Omega,
			TargetKeys:  s.TargetRecords,
			Seed:        s.Seed,
		})
	case TPC:
		wh := s.TargetRecords / 3000
		if wh < 4 {
			wh = 4
		}
		return workload.NewTPC(workload.TPCConfig{
			Warehouses:   wh,
			PayloadSize:  s.PayloadSize,
			InsertRatio:  s.InsertRatio,
			TargetOrders: s.TargetRecords,
			Seed:         s.Seed,
		})
	default:
		return workload.NewUniform(workload.UniformConfig{
			KeySpace:    keySpace,
			PayloadSize: s.PayloadSize,
			InsertRatio: s.InsertRatio,
			TargetKeys:  s.TargetRecords,
			Seed:        s.Seed,
		})
	}
}

// newTree builds a tree for an experiment run.
func (p Params) newTree(pol *policy.Policy, payload int, k0Blocks, cacheBlocks int) (*core.Tree, *storage.MemDevice, error) {
	dev := storage.NewMemDevice()
	tree, err := core.New(core.Config{
		Device:        dev,
		Policy:        pol,
		BlockCapacity: block.CapacityFor(p.BlockSize, payload),
		K0:            k0Blocks,
		Gamma:         p.Gamma,
		Epsilon:       p.Epsilon,
		CacheBlocks:   cacheBlocks,
		Seed:          p.Seed,
		Bus:           p.Bus,
	})
	if err != nil {
		return nil, nil, err
	}
	return tree, dev, nil
}
