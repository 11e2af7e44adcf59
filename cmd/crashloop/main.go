// Command crashloop runs the power-cut recovery harness
// (internal/crashloop) from the command line: randomized
// mutate→crash→reopen cycles against a file-backed store, verifying the
// write-ahead log's acked-write guarantee after every recovery.
//
// Usage:
//
//	crashloop [-dir DIR] [-iters 50] [-ops 200] [-seed 1] \
//	          [-sync every|interval|never] [-interval 2ms] \
//	          [-keyspace 512] [-shards 1] [-layout leveling|tiering|lazy] \
//	          [-tier-runs 4] [-torn] \
//	          [-paranoid] [-v]
//
// The process exits non-zero if any recovery violates the durability
// contract (lost acked writes under -sync every, a non-prefix state under
// the weaker policies, or a validation failure after reopen).
//
// With -chaos the command runs the fault-domain isolation soak instead:
// seeded device-fault scenarios (bit rot, ENOSPC, sticky sync failures,
// latency, flaky reads, a permanent write failure) injected into one shard of a sharded store, with
// the blast radius, health-event causes, and acked-write durability
// checked against a paired fault-free run. -scenario selects a single
// scenario; -ops and -shards apply (shards defaults to 4 in chaos mode).
//
//	crashloop -chaos [-scenario bitflip|enospc|stickysync|latency|transient|writefail]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lsmssd"
	"lsmssd/internal/crashloop"
)

func main() {
	var (
		dir      = flag.String("dir", "", "working directory (default: a fresh temp dir, removed on success)")
		iters    = flag.Int("iters", 50, "crash/restart cycles")
		ops      = flag.Int("ops", 200, "max mutations per cycle")
		seed     = flag.Int64("seed", 1, "RNG seed (same seed, same schedule)")
		syncMode = flag.String("sync", "every", "WAL sync policy: every, interval, or never")
		interval = flag.Duration("interval", 2*time.Millisecond, "sync period for -sync interval")
		keySpace = flag.Uint64("keyspace", 512, "keys drawn from [0, keyspace)")
		shards   = flag.Int("shards", 1, "Options.Shards for the store under test (power of two)")
		torn     = flag.Bool("torn", true, "append garbage to the last WAL segment after some crashes")
		paranoid = flag.Bool("paranoid", false, "run the store with Options.Paranoid")
		layout   = flag.String("layout", "leveling", "level layout: leveling, tiering, or lazy")
		tierRuns = flag.Int("tier-runs", 0, "run budget T for tiered layouts (0 = default)")
		chaos    = flag.Bool("chaos", false, "run the fault-domain isolation soak instead of the crash loop")
		scenario = flag.String("scenario", "", "chaos scenario to run: bitflip, enospc, stickysync, latency, transient, or writefail (default: all)")
		verbose  = flag.Bool("v", false, "log each cycle")
	)
	flag.Parse()

	if *chaos {
		runChaos(*dir, *shards, *ops, *seed, *scenario, *verbose)
		return
	}

	var lay lsmssd.Layout
	switch *layout {
	case "leveling":
		lay = lsmssd.Leveling
	case "tiering":
		lay = lsmssd.Tiering
	case "lazy", "lazy-leveling":
		lay = lsmssd.LazyLeveling
	default:
		fmt.Fprintf(os.Stderr, "crashloop: unknown -layout %q (want leveling, tiering, or lazy)\n", *layout)
		os.Exit(2)
	}

	var policy lsmssd.SyncPolicy
	switch *syncMode {
	case "every":
		policy = lsmssd.SyncEvery
	case "interval":
		policy = lsmssd.SyncInterval
	case "never":
		policy = lsmssd.SyncNever
	default:
		fmt.Fprintf(os.Stderr, "crashloop: unknown -sync %q (want every, interval, or never)\n", *syncMode)
		os.Exit(2)
	}

	workDir := *dir
	cleanup := false
	if workDir == "" {
		d, err := os.MkdirTemp("", "crashloop-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashloop: %v\n", err)
			os.Exit(1)
		}
		workDir, cleanup = d, true
	}

	cfg := crashloop.Config{
		Dir:      workDir,
		Iters:    *iters,
		MaxOps:   *ops,
		Seed:     *seed,
		KeySpace: *keySpace,
		Shards:   *shards,
		Sync:     policy,
		Interval: *interval,
		TornTail: *torn,
		Paranoid: *paranoid,
		Layout:   lay,
		TierRuns: *tierRuns,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	report, err := crashloop.Run(cfg)
	fmt.Println(report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashloop: FAIL: %v\n(store files kept in %s)\n", err, workDir)
		os.Exit(1)
	}
	if cleanup {
		if err := os.RemoveAll(workDir); err != nil {
			fmt.Fprintf(os.Stderr, "crashloop: cleanup: %v\n", err)
		}
	}
	fmt.Println("crashloop: PASS")
}

// runChaos drives the chaos mode. The -ops flag shares its default (200)
// with the crash loop, which is far too small a soak for the fault
// schedules to fire, so chaos mode only honors -ops when it was set
// explicitly and otherwise takes the harness default.
func runChaos(dir string, shards, ops int, seed int64, scenario string, verbose bool) {
	opsSet, shardsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "ops":
			opsSet = true
		case "shards":
			shardsSet = true
		}
	})
	if !opsSet {
		ops = 0
	}
	if !shardsSet {
		shards = 0 // chaos defaults to 4 shards, not the crash loop's 1
	}
	workDir := dir
	cleanup := false
	if workDir == "" {
		d, err := os.MkdirTemp("", "chaos-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashloop: %v\n", err)
			os.Exit(1)
		}
		workDir, cleanup = d, true
	}
	cfg := crashloop.ChaosConfig{
		Dir:      workDir,
		Shards:   shards,
		Ops:      ops,
		Seed:     seed,
		Scenario: scenario,
	}
	if verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	report, err := crashloop.RunChaos(cfg)
	fmt.Println(report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashloop: chaos FAIL: %v\n(store files kept in %s)\n", err, workDir)
		os.Exit(1)
	}
	if cleanup {
		if err := os.RemoveAll(workDir); err != nil {
			fmt.Fprintf(os.Stderr, "crashloop: cleanup: %v\n", err)
		}
	}
	fmt.Println("crashloop: chaos PASS")
}
