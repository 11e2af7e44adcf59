package experiments

import (
	"fmt"
	"math/rand"

	"lsmssd/internal/block"
)

// QueryOverhead reproduces the technical report's query experiment: after
// reaching the same steady state used for the write-cost figures, measure
// lookup and range-scan read costs under every policy. The claim under
// test: relaxed level storage, partial merges, and block preservation add
// little query overhead even against Full-P's maximally compact storage.
func (p Params) QueryOverhead(policies []string, datasetMB float64) (*Table, error) {
	p = p.WithDefaults()
	if policies == nil {
		policies = PolicyNames
	}
	t := &Table{
		Title:  fmt.Sprintf("Queries (TR): block reads per operation at %vMB, Uniform steady state", datasetMB),
		Header: []string{"policy", "reads/hit", "reads/miss", "reads/scan1k", "levels"},
	}
	for _, pol := range policies {
		run, err := p.buildSteady(SteadySpec{
			PolicyName: pol, Delta: 0.07,
			Workload:  p.uniformWL(100),
			DatasetMB: datasetMB, K0MB: 16, CacheMB: 16,
		})
		if err != nil {
			return nil, fmt.Errorf("queries %s: %w", pol, err)
		}
		tree, dev := run.tree, run.dev

		// Sample present keys without disturbing the counters.
		var present []block.Key
		stride := tree.Records()/2000 + 1
		i := 0
		if err := tree.Scan(0, ^block.Key(0), func(k block.Key, _ []byte) bool {
			if i%stride == 0 {
				present = append(present, k)
			}
			i++
			return true
		}); err != nil {
			return nil, err
		}
		if len(present) == 0 {
			return nil, fmt.Errorf("queries %s: empty index", pol)
		}
		rng := rand.New(rand.NewSource(p.Seed))

		const lookups = 5000
		base := dev.Counters().Reads
		for j := 0; j < lookups; j++ {
			k := present[rng.Intn(len(present))]
			if _, ok, err := tree.Get(k); err != nil || !ok {
				return nil, fmt.Errorf("queries %s: present key %d missing: %w", pol, k, err)
			}
		}
		readsHit := float64(dev.Counters().Reads-base) / lookups

		base = dev.Counters().Reads
		for j := 0; j < lookups; j++ {
			// Uniform keys over the space are overwhelmingly absent.
			k := block.Key(rng.Uint64() % p.KeySpace)
			if _, _, err := tree.Get(k); err != nil {
				return nil, err
			}
		}
		readsMiss := float64(dev.Counters().Reads-base) / lookups

		// Range scans of ~1000 records each.
		span := block.Key(p.KeySpace / uint64(tree.Records()) * 1000)
		const scans = 300
		base = dev.Counters().Reads
		for j := 0; j < scans; j++ {
			lo := block.Key(rng.Uint64() % p.KeySpace)
			n := 0
			if err := tree.Scan(lo, lo+span, func(block.Key, []byte) bool {
				n++
				return true
			}); err != nil {
				return nil, err
			}
		}
		readsScan := float64(dev.Counters().Reads-base) / scans

		t.AddRow(pol, f2(readsHit), f2(readsMiss), f1(readsScan), fmt.Sprint(tree.Height()))
	}
	return t, nil
}
