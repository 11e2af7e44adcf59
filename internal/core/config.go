// Package core implements the LSM-tree engine of the paper: a
// memory-resident L0 over geometrically growing storage levels, updated
// exclusively through policy-driven merges with relaxed level storage,
// waste constraints, and optional block-preserving merges.
package core

import (
	"errors"
	"fmt"
	"lsmssd/internal/block"

	"lsmssd/internal/obs"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// Config parameterizes a Tree. Required fields: Device, Policy,
// BlockCapacity, K0. The remaining fields default to the paper's settings.
type Config struct {
	// Device is the block store (the "SSD"). Wrap it in a cache
	// externally or set CacheBlocks to have the tree do it.
	Device storage.Device
	// Policy decides what each merge takes (Full, RR, ChooseBest, Mixed...).
	Policy *policy.Policy
	// BlockCapacity is B: records per data block.
	BlockCapacity int
	// K0 is the capacity of the memory-resident L0, in blocks.
	K0 int
	// Gamma is Γ, the geometric growth factor of level capacities
	// (default 10, as in LevelDB and the paper).
	Gamma int
	// Epsilon is ε, the maximum waste factor per level (default 0.2).
	Epsilon float64
	// CacheBlocks, when positive, layers an LRU buffer cache of that many
	// blocks over Device.
	CacheBlocks int
	// BloomBitsPerKey, when positive, maintains per-block Bloom filters
	// to cut lookup reads for absent keys. Filters live in memory only;
	// Restore rebuilds them from the device.
	BloomBitsPerKey float64
	// Seed is recorded in the shard's manifest. It does not drive the
	// memtable: L0 is a B+-tree whose shape depends only on the
	// operations applied, so runs with equal configs and workloads are
	// bit-for-bit reproducible whatever the seed.
	Seed int64
	// Shard is the index of the shard this tree serves in a sharded DB
	// (0 for a single-tree engine). Purely descriptive: it is stamped on
	// the tree's MergeEvent/FlushEvent emissions so traces from sibling
	// trees sharing one Bus stay attributable.
	Shard int
	// Auditor, when non-nil, runs after every merge and level growth (the
	// paranoid hook; see internal/invariant). A non-nil return aborts the
	// mutating operation with that error.
	Auditor func(*Tree) error
	// Bus, when non-nil, receives typed observability events (merges,
	// flushes, growths, waste warnings; see internal/obs). The tree never
	// constructs an event unless a sink is subscribed, so an unobserved bus
	// costs one atomic load per merge.
	Bus *obs.Bus
	// Lat, when non-nil, records merge-step latencies (obs.OpMerge) once
	// enabled. Request-level latencies are recorded by the public layer.
	Lat *obs.LatencySet
}

func (c *Config) validate() error {
	if c.Device == nil {
		return errors.New("core: Config.Device is required")
	}
	if c.Policy == nil {
		return errors.New("core: Config.Policy is required")
	}
	if c.BlockCapacity < 1 || c.BlockCapacity > block.MaxRecords {
		return fmt.Errorf("core: BlockCapacity %d outside [1, %d]", c.BlockCapacity, block.MaxRecords)
	}
	if c.K0 < 1 {
		return fmt.Errorf("core: K0 %d < 1", c.K0)
	}
	if c.Gamma == 0 {
		c.Gamma = 10
	}
	if c.Gamma < 2 {
		return fmt.Errorf("core: Gamma %d < 2", c.Gamma)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.2
	}
	if c.Epsilon < 0 || c.Epsilon > 0.5 {
		return fmt.Errorf("core: Epsilon %v outside [0, 0.5]", c.Epsilon)
	}
	return nil
}

// capacityBlocks returns K_i = K0·Γ^i.
func (c *Config) capacityBlocks(level int) int {
	k := c.K0
	for i := 0; i < level; i++ {
		k *= c.Gamma
	}
	return k
}
