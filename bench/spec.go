package main

import (
	"time"

	"lsmssd"
)

// Settings every workload shares. RecordsPerBlock is pinned to 32 because
// the engine's derived default (37 for 100-byte values) overflows a 4096-
// byte block on a file-backed store; see README.md, "Known seed defect".
const (
	recordsPerBlock = 32
	blockSize       = 4096
	bloomBitsPerKey = 10
	scanLen         = 100
	batchLen        = 8
	preloadBatch    = 256
	readBackKeys    = 10_000
	maxSlices       = 20 // timings are medians over up to this many slices of a run
)

// probeSizes is how many single-client, closed-loop calls run on the
// drained store after the measured phase. First quietGets Gets alone: a
// window with no other traffic, in which device reads per Get are counted.
// Then probeRounds rounds, each issuing a share of every other count, one
// call type after another, so each type's samples are spread over the whole
// probe (seconds) and a host stall hits a few rounds of each, not all of
// one. They supply the medians of the call types whose median in the
// workload's own mix is not a property of the store: types the mix lacks;
// everything on the open loop, where a paced issuer's median is set by the
// generator's timing; and the microsecond Get beside fsync-bound writers in
// durable-mix, which flips between two modes (0.76 and 1.26 us) with how
// often the other client happens to be on a CPU, i.e. with the disk's mood.
type probeSizes struct{ quietGets, gets, scans, puts, applies int }

const probeRounds = 20

// spec freezes one workload. Rates are per second of --seconds, so the
// amount of work is a fixed function of the command line and never of how
// fast the store happens to run.
type spec struct {
	name      string
	shards    int
	sync      lsmssd.SyncPolicy
	cache     int // Options.CacheBlocks (per shard)
	setupReps int // set-up is repeated this often; setup_s is the median
	preload   int // records written during set-up
	dense     bool
	reopen    bool // Close and reopen after the preload, inside set-up
	warmGets  int  // untimed-by-the-run Gets after reopen, inside set-up

	closedOps  int  // closed loop: calls per second of --seconds, both clients together
	timedDrain bool // the clock stops only when compaction has drained (equal work)
	putRate    int  // open loop: Puts per second
	getRate    int  // open loop: Gets per second

	probe probeSizes
}

// The four workloads. Sizes are the issue's 30-second designs scaled to a
// 10-second run (run_seconds in BENCHMARK.json) with each data:cache ratio
// kept, and closed-loop rates set to what this engine sustains at the seed
// commit on the 2-core box, so a run measures for about --seconds.
var specs = []spec{
	{
		name: "load", shards: 2, sync: lsmssd.SyncInterval, cache: 341, setupReps: 101,
		closedOps: 100_000, timedDrain: true,
		probe: probeSizes{quietGets: 20_000, gets: 100_000, scans: 3_000, applies: 40_000},
	},
	{
		name: "steady", shards: 1, sync: lsmssd.SyncInterval, cache: 341, setupReps: 3,
		preload: 200_000,
		putRate: 40_000, getRate: 10_000,
		probe: probeSizes{quietGets: 20_000, gets: 100_000, scans: 4_000, puts: 100_000, applies: 40_000},
	},
	{
		name: "lookup", shards: 1, sync: lsmssd.SyncInterval, cache: 328, setupReps: 3,
		preload: 320_000, reopen: true, warmGets: 33_000,
		closedOps: 150_000,
		probe:     probeSizes{scans: 4_000, puts: 100_000, applies: 40_000},
	},
	{
		name: "durable-mix", shards: 2, sync: lsmssd.SyncEvery, cache: 1024, setupReps: 3,
		preload: 200_000, dense: true,
		closedOps: 8_500,
		probe:     probeSizes{quietGets: 20_000, gets: 200_000, puts: 20_000},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// shrink divides the set-up and probe sizes by f for the smoke run, which
// shortens the measured phase by the same factor through -seconds.
func (s spec) shrink(f int) spec {
	s.preload /= f
	s.warmGets /= f
	s.setupReps = 1
	p := s.probe
	s.probe = probeSizes{p.quietGets / f, p.gets / f, p.scans / f, p.puts / f, p.applies / f}
	return s
}

func (s spec) options(path string) lsmssd.Options {
	return lsmssd.Options{
		Path:            path,
		Shards:          s.shards,
		BlockSize:       blockSize,
		RecordsPerBlock: recordsPerBlock,
		CacheBlocks:     s.cache,
		BloomBitsPerKey: bloomBitsPerKey,
		CompactionMode:  lsmssd.BackgroundCompaction,
		WAL:             lsmssd.WALOptions{Enabled: true, Sync: s.sync, Interval: 100 * time.Millisecond},
	}
}

// metricDef names one metric and its unit; BENCHMARK.json must list
// exactly these names (bench_test.go checks).
type metricDef struct{ name, unit string }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("metric " + name + " is not in the catalog")
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"put_p50_us", "us"},
	{"get_p50_us", "us"},
	{"apply_p50_us", "us"},
	{"scan_p50_us", "us"},
	{"slo_ok_frac", "frac"},
	{"blocks_written_per_mb", "blocks/MB"},
	{"blocks_read_per_get", "blocks/get"},
	{"space_amp", "ratio"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "frac"},
}
