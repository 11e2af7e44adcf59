// Chaos mode: fault-domain isolation soak. Where the crash loop proves
// the durability contract under power cuts, the chaos harness proves the
// graceful-degradation contract under device faults: it runs a sharded
// store with a seeded fault schedule injected into exactly one shard's
// device (through Options.DeviceWrap) and asserts the blast radius stays
// inside that shard.
//
// Each scenario runs twice over the same deterministic workload — once
// with the fault schedule disarmed, once armed — and the paired runs must
// agree byte-for-byte on every unfaulted shard's device write count. That
// is the isolation invariant in its strongest observable form: a sibling
// shard of a faulted one performs exactly the work it would have
// performed had the fault never happened.
//
// The harness also asserts the degradation contract end to end:
//
//   - writes to unfaulted shards never fail;
//   - every health transition is published with a machine-stable cause
//     and names only the faulted shard;
//   - a shard demoted to read-only rejects writes fast with
//     ErrShardReadOnly while still serving reads of acknowledged keys;
//   - after a crash, a clean reopen recovers every acknowledged write
//     (the WAL runs SyncEvery) and Validate passes on every shard.
package crashloop

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lsmssd"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/storage"
)

// ChaosConfig parameterizes RunChaos. Zero values take the documented
// defaults; only Dir is required.
type ChaosConfig struct {
	Dir      string // working directory; each scenario run uses a fresh subdirectory (required)
	Shards   int    // shard count, a power of two >= 2 (default 4)
	Ops      int    // mutations per scenario run (default 2500)
	Seed     int64  // seeds the fault schedules; equal seeds replay exactly
	Scenario string // run a single named scenario ("" = all)

	Logf func(format string, args ...any) // optional progress logger
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Ops <= 0 {
		c.Ops = 2500
	}
	return c
}

// ChaosReport aggregates what a chaos run did and observed.
type ChaosReport struct {
	Shards    int
	Scenarios []ChaosScenarioReport
}

// ChaosScenarioReport is one scenario's outcome (its armed run).
type ChaosScenarioReport struct {
	Name          string
	FaultShard    int    // shard the fault schedule was injected into
	Acked         int    // writes acknowledged
	Rejected      int    // writes refused fast with ErrShardReadOnly
	Faulted       int    // other write errors on the faulted shard (the demoting faults)
	HealthEvents  int    // health transitions published
	FinalState    string // faulted shard's state when the run ended
	Quarantined   int    // blocks quarantined on the faulted shard at the end
	ScrubCorrupt  int64  // corruption the scrubber detected on the faulted shard
	ScrubRepaired int64  // blocks the scrubber repaired from a surviving copy
	RetriedReads  int64  // device reads the retry layer had to repeat
}

func (r ChaosReport) String() string {
	s := fmt.Sprintf("chaos: %d shards, %d scenarios", r.Shards, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		s += fmt.Sprintf(
			"\n  %-10s shard %d: %d acked, %d rejected, %d faulted, %d events, final %q",
			sc.Name, sc.FaultShard, sc.Acked, sc.Rejected, sc.Faulted, sc.HealthEvents, sc.FinalState)
		if sc.ScrubCorrupt > 0 || sc.Quarantined > 0 {
			s += fmt.Sprintf(", scrub found %d corrupt (%d repaired, %d quarantined)",
				sc.ScrubCorrupt, sc.ScrubRepaired, sc.Quarantined)
		}
		if sc.RetriedReads > 0 {
			s += fmt.Sprintf(", %d retried reads", sc.RetriedReads)
		}
	}
	return s
}

// chaosScenario is one named fault schedule plus the contract it must
// uphold.
type chaosScenario struct {
	name  string
	about string
	fault faultdev.Options        // injected into the target shard's device
	tune  func(o *lsmssd.Options) // scenario-specific engine options (both runs)

	failWriteAt int64 // when set, every device write from this one on fails (faultdev.FailWriteAt)

	expectReadOnly bool   // the faulted shard must end up rejecting writes with ErrShardReadOnly
	expectCause    string // when set, the read-only demotion must carry exactly this cause
	ackedUntilRO   bool   // the fault must cost no write its acknowledgement: every refusal is ErrShardReadOnly
	expectScrub    bool   // the scrubber must detect corruption on the faulted shard
	expectRetries  bool   // the retry layer must have absorbed read faults
	quiet          bool   // no health transition may occur at all
	compareTarget  bool   // the faulted shard's write count must also match the disarmed run
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			name:  "bitflip",
			about: "silent bit rot on one shard's device: the scrubber must detect it below the cache, quarantine, and repair from the surviving cached copy",
			fault: faultdev.Options{BitFlipProb: 0.25},
			tune: func(o *lsmssd.Options) {
				o.ScrubInterval = 10 * time.Millisecond
			},
			expectScrub: true,
		},
		{
			name:           "enospc",
			about:          "capacity ceiling on one shard's device: the first flush over the ceiling demotes that shard to read-only while its siblings keep writing",
			fault:          faultdev.Options{CapacityBlocks: 8},
			expectReadOnly: true,
		},
		{
			name:           "stickysync",
			about:          "permanently failing device syncs on one shard: the first checkpoint, run off the write path, demotes it to read-only (fsyncgate semantics) after the Put that sealed the segment was acknowledged",
			fault:          faultdev.Options{SyncFailProb: 1, SyncFailSticky: true},
			expectReadOnly: true,
			expectCause:    "sync-failed",
			ackedUntilRO:   true,
		},
		{
			name:          "latency",
			about:         "a slow but correct device on one shard: no health transition, write counts byte-identical to the disarmed run on every shard",
			fault:         faultdev.Options{Latency: 100 * time.Microsecond},
			quiet:         true,
			compareTarget: true,
		},
		{
			name:  "transient",
			about: "flaky reads on one shard: the bounded-backoff retry layer must absorb every fault without a health transition",
			fault: faultdev.Options{ReadFailProb: 0.05},
			tune: func(o *lsmssd.Options) {
				o.CacheBlocks = -1 // force reads to the device so the fault schedule is exercised
				o.ReadRetries = 8
			},
			expectRetries: true,
			quiet:         true,
			compareTarget: true,
		},
		{
			name:           "writefail",
			about:          "a permanent device write failure on one shard: the merge step that meets it ends the shard's scheduler, which demotes the shard to read-only with a cause while its siblings keep writing",
			failWriteAt:    4,
			expectReadOnly: true,
			expectCause:    "background-failed",
			ackedUntilRO:   true,
		},
	}
}

// RunChaos executes the chaos scenarios and returns the report. A non-nil
// error means an isolation or degradation invariant was violated (or the
// environment failed); the report covers the scenarios completed so far.
func RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	cfg = cfg.withDefaults()
	rep := ChaosReport{Shards: cfg.Shards}
	if cfg.Dir == "" {
		return rep, fmt.Errorf("chaos: Config.Dir is required")
	}
	if cfg.Shards < 2 || cfg.Shards&(cfg.Shards-1) != 0 {
		return rep, fmt.Errorf("chaos: Shards %d must be a power of two >= 2: isolation needs at least one unfaulted sibling", cfg.Shards)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	scenarios := chaosScenarios()
	if cfg.Scenario != "" {
		found := false
		for _, sc := range scenarios {
			if sc.name == cfg.Scenario {
				scenarios, found = []chaosScenario{sc}, true
				break
			}
		}
		if !found {
			names := make([]string, 0, len(scenarios))
			for _, sc := range scenarios {
				names = append(names, sc.name)
			}
			return rep, fmt.Errorf("chaos: unknown scenario %q (have %v)", cfg.Scenario, names)
		}
	}
	for i, sc := range scenarios {
		target := i % cfg.Shards
		logf("chaos %s: %s (fault shard %d)", sc.name, sc.about, target)
		base, err := runChaosInstance(filepath.Join(cfg.Dir, sc.name+"-disarmed"), sc, -1, cfg)
		if err != nil {
			return rep, fmt.Errorf("chaos %s: disarmed run: %w", sc.name, err)
		}
		if n := len(base.events); n != 0 {
			return rep, fmt.Errorf("chaos %s: disarmed run published %d health events (first: %+v); a fault-free store must stay silent", sc.name, n, base.events[0])
		}
		armed, err := runChaosInstance(filepath.Join(cfg.Dir, sc.name+"-armed"), sc, target, cfg)
		if err != nil {
			return rep, fmt.Errorf("chaos %s: armed run: %w", sc.name, err)
		}
		if err := checkChaosPair(sc, target, cfg.Shards, base, armed); err != nil {
			return rep, fmt.Errorf("chaos %s: %w", sc.name, err)
		}
		sr := ChaosScenarioReport{
			Name:         sc.name,
			FaultShard:   target,
			Acked:        len(armed.model),
			Rejected:     armed.rejected,
			Faulted:      armed.faulted,
			HealthEvents: len(armed.events),
			FinalState:   armed.health.Shards[target].State,
		}
		ts := armed.per[target]
		sr.Quarantined = ts.Quarantined
		sr.ScrubCorrupt = ts.ScrubCorrupt
		sr.ScrubRepaired = ts.ScrubRepaired
		sr.RetriedReads = ts.RetriedReads
		rep.Scenarios = append(rep.Scenarios, sr)
		logf("chaos %s: ok — %d acked, %d rejected, %d events, shard %d ended %q",
			sc.name, sr.Acked, sr.Rejected, sr.HealthEvents, target, sr.FinalState)
	}
	return rep, nil
}

// checkChaosPair asserts the scenario's invariants over a disarmed/armed
// run pair.
func checkChaosPair(sc chaosScenario, target, shards int, base, armed *chaosOutcome) error {
	// Isolation: unfaulted shards performed byte-identical device work.
	for i := 0; i < shards; i++ {
		if i == target && !sc.compareTarget {
			continue
		}
		if b, a := base.per[i].BlocksWritten, armed.per[i].BlocksWritten; b != a {
			return fmt.Errorf("ISOLATION VIOLATION: shard %d wrote %d blocks with the fault armed, %d disarmed (fault was on shard %d)",
				i, a, b, target)
		}
		if i != target {
			if st := armed.health.Shards[i].State; st != "healthy" {
				return fmt.Errorf("ISOLATION VIOLATION: unfaulted shard %d ended %q (fault was on shard %d)", i, st, target)
			}
		}
	}
	// Every published transition names the faulted shard and carries a cause.
	for _, ev := range armed.events {
		if ev.Shard != target {
			return fmt.Errorf("ISOLATION VIOLATION: health event %+v names shard %d, fault was on shard %d", ev, ev.Shard, target)
		}
		if ev.Cause == "" {
			return fmt.Errorf("health transition %s -> %s published without a cause", ev.From, ev.To)
		}
	}
	if sc.quiet && len(armed.events) != 0 {
		return fmt.Errorf("scenario must not demote: got %d health events (first: %+v)", len(armed.events), armed.events[0])
	}
	if sc.expectReadOnly {
		seen := false
		for _, ev := range armed.events {
			if ev.To == "read-only" {
				if sc.expectCause != "" && ev.Cause != sc.expectCause {
					return fmt.Errorf("faulted shard %d demoted to read-only with cause %q, want %q", target, ev.Cause, sc.expectCause)
				}
				seen = true
				break
			}
		}
		if !seen {
			return fmt.Errorf("faulted shard %d never published a read-only demotion (events: %d)", target, len(armed.events))
		}
		if sc.ackedUntilRO && armed.faulted != 0 {
			return fmt.Errorf("%d writes to shard %d failed with the raw fault instead of being acknowledged or refused as read-only: the failing checkpoint ran on the write path",
				armed.faulted, target)
		}
		if armed.rejected == 0 {
			return fmt.Errorf("faulted shard %d demoted but no write was rejected with ErrShardReadOnly", target)
		}
	}
	if sc.expectScrub {
		if armed.per[target].ScrubCorrupt == 0 {
			return fmt.Errorf("scrubber never detected the injected corruption on shard %d", target)
		}
		for i := 0; i < shards; i++ {
			if i != target && armed.per[i].ScrubCorrupt != 0 {
				return fmt.Errorf("ISOLATION VIOLATION: scrubber found corruption on unfaulted shard %d", i)
			}
		}
	}
	if sc.expectRetries && armed.per[target].RetriedReads == 0 {
		return fmt.Errorf("retry layer recorded no retried reads on shard %d under a %.0f%% read-fault schedule",
			target, sc.fault.ReadFailProb*100)
	}
	return nil
}

// chaosOutcome is what one instance run observed.
type chaosOutcome struct {
	per      []lsmssd.ShardStats
	health   lsmssd.HealthReport
	events   []lsmssd.HealthEvent
	model    map[uint64][]byte // acknowledged writes
	rejected int
	faulted  int
}

// chaosOptions builds the store options shared by both runs of a
// scenario pair; only the DeviceWrap fault schedule differs.
func chaosOptions(cfg ChaosConfig, sc chaosScenario, path string) lsmssd.Options {
	o := lsmssd.Options{
		Path:           path,
		Shards:         cfg.Shards,
		Seed:           cfg.Seed + 1, // nonzero so both runs share the exact seed
		MemtableBlocks: 2,            // small L0 so flushes and merges happen within the soak
		WAL: lsmssd.WALOptions{
			Sync:         lsmssd.SyncEvery, // zero acked-write loss is part of the contract
			SegmentBytes: 8 << 10,          // rotate often so checkpoints (and their device syncs) fire
		},
	}
	if sc.tune != nil {
		sc.tune(&o)
	}
	return o
}

// chaosValue derives op's value deterministically — no RNG, so the armed
// and disarmed runs issue byte-identical workloads regardless of which
// writes fail.
func chaosValue(op int) []byte {
	v := make([]byte, 16+op%17)
	for j := range v {
		v[j] = byte(op*31 + j*7 + 11)
	}
	return v
}

// runChaosInstance opens a fresh store (fault schedule armed on shard
// target, disarmed when target < 0), drives the deterministic workload,
// snapshots stats and health, crashes, and verifies a clean reopen
// recovers every acknowledged write.
func runChaosInstance(dir string, sc chaosScenario, target int, cfg ChaosConfig) (*chaosOutcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := chaosOptions(cfg, sc, filepath.Join(dir, "store.db"))
	opts.DeviceWrap = func(shard int, dev storage.Device) storage.Device {
		if shard != target {
			return dev
		}
		f := sc.fault
		f.Seed = cfg.Seed + int64(shard) + 1
		fd := faultdev.Wrap(dev, f)
		if sc.failWriteAt > 0 {
			fd.FailWriteAt(sc.failWriteAt)
		}
		return fd
	}
	db, err := lsmssd.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	out := &chaosOutcome{model: make(map[uint64][]byte)}
	var evMu sync.Mutex
	cancel := db.Subscribe(func(ev lsmssd.Event) {
		if he, ok := ev.(lsmssd.HealthEvent); ok {
			evMu.Lock()
			out.events = append(out.events, he)
			evMu.Unlock()
		}
	})
	defer cancel()

	fail := func(format string, args ...any) (*chaosOutcome, error) {
		_ = db.Crash()
		return nil, fmt.Errorf(format, args...)
	}

	// Merges run when the scheduler goroutine gets to them, and which
	// records a merge finds in L0 decides what it writes; to keep the paired
	// runs' write counts comparable the workload lets every unfaulted
	// shard's queue (merges and checkpoints) empty after each op. The
	// faulted shard is left out: once demoted its queue never empties.
	settle := func() error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			busy := -1
			for i, ss := range db.Stats().Shards {
				if i != target && ss.Compaction.QueueDepth > 0 {
					busy = i
				}
			}
			if busy < 0 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("shard %d's compaction queue did not empty within 30s", busy)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Workload: sequence-numbered keys round-robin the shards (key & mask
	// is the shard), so each key is written exactly once and the per-shard
	// op sequence is identical whether or not a sibling is faulted.
	mask := cfg.Shards - 1
	for op := 0; op < cfg.Ops; op++ {
		if serr := settle(); serr != nil {
			return fail("%v", serr)
		}
		key := uint64(op)
		sh := op & mask
		if perr := db.Put(key, chaosValue(op)); perr != nil {
			if sh != target {
				return fail("unfaulted shard %d refused Put(%d): %v", sh, key, perr)
			}
			if errors.Is(perr, lsmssd.ErrShardReadOnly) {
				out.rejected++
			} else {
				out.faulted++
			}
		} else {
			out.model[key] = chaosValue(op)
		}
		// Read back a key from the first half of the run now and then —
		// old enough to have been flushed out of the memtable, so the read
		// exercises the device (and the retry layer in front of it).
		// Unfaulted shards must serve every acknowledged write exactly.
		if op%5 == 4 && op >= 256 {
			gk := op / 2
			v, ok, gerr := db.Get(uint64(gk))
			if gk&mask != target {
				if gerr != nil {
					return fail("unfaulted shard %d failed Get(%d): %v", gk&mask, gk, gerr)
				}
				if want, acked := out.model[uint64(gk)]; acked && (!ok || !bytes.Equal(v, want)) {
					return fail("unfaulted shard %d lost acked key %d mid-run", gk&mask, gk)
				}
			}
		}
	}

	// Scenario-specific settling before the snapshot.
	if target >= 0 && sc.expectReadOnly {
		// Keep writing to the faulted shard until the demotion lands (the
		// trigger is a flush or checkpoint, which may need a few more ops).
		next := (cfg.Ops/cfg.Shards+1)*cfg.Shards + target
		for extra := 0; extra < 4096; extra++ {
			if db.Health().Shards[target].State == "read-only" {
				break
			}
			key := uint64(next)
			next += cfg.Shards
			if perr := db.Put(key, chaosValue(int(key))); perr != nil {
				if errors.Is(perr, lsmssd.ErrShardReadOnly) {
					out.rejected++
				} else {
					out.faulted++
				}
			} else {
				out.model[key] = chaosValue(int(key))
			}
		}
		if st := db.Health().Shards[target].State; st != "read-only" {
			return fail("faulted shard %d is %q, expected read-only after the fault schedule", target, st)
		}
		// Fail-fast contract: now that the shard is read-only, a write to it
		// must be rejected with the typed sentinel, not retried or absorbed.
		if perr := db.Put(uint64(next), chaosValue(next)); errors.Is(perr, lsmssd.ErrShardReadOnly) {
			out.rejected++
		} else {
			return fail("Put on read-only shard %d returned %v, want ErrShardReadOnly", target, perr)
		}
		// Degradation, not death: the read-only shard still serves reads.
		served := false
		for key, want := range out.model {
			if int(key)&mask != target {
				continue
			}
			v, ok, gerr := db.Get(key)
			if gerr != nil || !ok || !bytes.Equal(v, want) {
				return fail("read-only shard %d no longer serves acked key %d (ok=%v err=%v)", target, key, ok, gerr)
			}
			served = true
			break
		}
		if !served {
			return fail("no acked key on shard %d to probe reads with", target)
		}
	}
	if target >= 0 && sc.expectScrub {
		// Wait for a scrub pass to find the injected corruption; detection
		// is wall-clock paced, so poll with a generous deadline.
		deadline := time.Now().Add(10 * time.Second)
		for db.Stats().Shards[target].ScrubCorrupt == 0 {
			if time.Now().After(deadline) {
				return fail("scrubber found no corruption on shard %d within 10s", target)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if serr := settle(); serr != nil {
		return fail("%v", serr)
	}
	st := db.Stats()
	out.per = st.Shards
	out.health = db.Health()

	// Crash and verify the degradation never cost an acknowledged write:
	// a clean reopen (fault schedule gone — the injected faults live in
	// the wrapper, not the file) must recover every acked key.
	if cerr := db.Crash(); cerr != nil && target < 0 {
		return nil, fmt.Errorf("crash teardown of fault-free store: %w", cerr)
	}
	ropts := opts
	ropts.DeviceWrap = nil
	rdb, rerr := lsmssd.Open(ropts)
	if rerr != nil {
		return nil, fmt.Errorf("reopen after crash: %w", rerr)
	}
	if verr := rdb.Validate(); verr != nil {
		_ = rdb.Close()
		return nil, fmt.Errorf("validate after recovery: %w", verr)
	}
	for key, want := range out.model {
		v, ok, gerr := rdb.Get(key)
		if gerr != nil {
			_ = rdb.Close()
			return nil, fmt.Errorf("ACKED WRITE LOSS: key %d (shard %d) read failed after crash+reopen: %w", key, int(key)&mask, gerr)
		}
		if !ok || !bytes.Equal(v, want) {
			_ = rdb.Close()
			return nil, fmt.Errorf("ACKED WRITE LOSS: key %d (shard %d) missing or wrong after crash+reopen (ok=%v)", key, int(key)&mask, ok)
		}
	}
	if cerr := rdb.Close(); cerr != nil {
		return nil, fmt.Errorf("clean close after recovery: %w", cerr)
	}
	return out, nil
}
