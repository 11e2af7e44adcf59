package lsmssd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lsmssd/internal/obs"
)

// traceOptions is obsOptions plus full tracing: every op is phase-traced
// (slow threshold 1ns captures all of them) and every op is sampled.
func traceOptions() Options {
	o := obsOptions()
	o.Metrics = true
	o.TraceSampleRate = 1
	o.SlowOpThreshold = 1
	return o
}

// TestSpanSumEqualsLatencyAtDB is the tentpole acceptance property driven
// through the real engine: for every operation kind — Put and Delete
// (WAL, memtable, cascade), batch Apply, Get, Scan — the captured span's
// phase durations sum exactly to the op's total latency, and the phases
// the workload must exercise actually show up.
func TestSpanSumEqualsLatencyAtDB(t *testing.T) {
	opts := traceOptions()
	opts.Path = filepath.Join(t.TempDir(), "store.blk")
	opts.WAL = WALOptions{Sync: SyncEvery}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := uint64(0); i < 400; i++ {
		if err := db.Put(i, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	b := db.NewBatch()
	for i := uint64(500); i < 520; i++ {
		b.Put(i, []byte("batched"))
	}
	if err := db.Apply(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(0, 100, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}

	evs := db.SlowOps()
	if len(evs) == 0 {
		t.Fatal("slow threshold 1ns captured nothing")
	}
	seen := map[string]bool{}
	var phases [obs.NumPhases]time.Duration
	for _, ev := range evs {
		if ev.PhaseSum() != ev.Total {
			t.Errorf("%s span: phase sum %v != total %v (phases %v)", ev.Op, ev.PhaseSum(), ev.Total, ev.Phases)
		}
		if !ev.Slow {
			t.Errorf("%s event in the slow ring without the Slow flag", ev.Op)
		}
		seen[ev.Op.String()] = true
		for p, d := range ev.Phases {
			phases[p] += d
		}
		switch ev.Op {
		case obs.OpPut, obs.OpDelete, obs.OpApply:
			if ev.Shard != 0 {
				t.Errorf("%s span attributed to shard %d on a 1-shard DB", ev.Op, ev.Shard)
			}
			if ev.Phases[obs.PhaseWALAppend]+ev.Phases[obs.PhaseWALSync] <= 0 {
				t.Errorf("%s span has no WAL time despite SyncEvery: %v", ev.Op, ev.Phases)
			}
		case obs.OpScan:
			if ev.Shard != -1 {
				t.Errorf("scan span carries shard %d, want -1 (multi-shard)", ev.Shard)
			}
		}
	}
	for _, op := range []string{"put", "delete", "apply", "get", "scan"} {
		if !seen[op] {
			t.Errorf("no span captured for %s (ring may be too small for the workload tail)", op)
		}
	}
	// Every write notifies the scheduler and the workload reads from a
	// cache-less device, so cascade and memtable time must be attributed.
	if phases[obs.PhaseMemtable] <= 0 || phases[obs.PhaseCascade] <= 0 {
		t.Errorf("write phases unattributed: memtable=%v cascade=%v", phases[obs.PhaseMemtable], phases[obs.PhaseCascade])
	}
}

// TestScanSpanCoversPriming: Scan attaches its span before the iterator
// primes its streams, so the first block a scan loads is charged to
// PhaseDevRead on a cache-less store, even when the scan stops after one
// key and never loads another.
func TestScanSpanCoversPriming(t *testing.T) {
	db, err := Open(traceOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Ascending puts leave only the newest keys in L0 (2 blocks of 8), so
	// the keys below 100 all live on the device.
	for i := uint64(0); i < 400; i++ {
		if err := db.Put(i, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := db.Scan(0, 99, func(uint64, []byte) bool { n++; return false }); err != nil || n != 1 {
		t.Fatalf("scan: %d keys, err %v", n, err)
	}
	var scans int
	for _, ev := range db.SlowOps() {
		if ev.Op != obs.OpScan {
			continue
		}
		scans++
		if ev.PhaseSum() != ev.Total {
			t.Errorf("scan span: phase sum %v != total %v (phases %v)", ev.PhaseSum(), ev.Total, ev.Phases)
		}
		if ev.Phases[obs.PhaseDevRead] <= 0 {
			t.Errorf("scan span charges no device read for its priming block load: %v", ev.Phases)
		}
	}
	if scans != 1 {
		t.Fatalf("captured %d scan spans, want 1", scans)
	}
}

// TestTracedReadPhaseFollowsCacheOutcome: with a one-block cache, a
// traced Get of the block just read is a hit and its fetch lands in
// PhaseCacheRead alone; a traced Get of another block is a miss and lands
// in PhaseDevRead alone. The label comes from the read call's own report,
// so no separate presence check can disagree with what the read did.
func TestTracedReadPhaseFollowsCacheOutcome(t *testing.T) {
	o := traceOptions()
	o.CacheBlocks = 1
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Ascending puts leave only the newest keys in L0 (2 blocks of 8):
	// keys 0 and 64 live on the device, in different blocks, and no
	// other level's fences cover them.
	for i := uint64(0); i < 400; i++ {
		if err := db.Put(i, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	getSpan := func(k uint64) SpanEvent {
		t.Helper()
		if _, ok, err := db.Get(k); !ok || err != nil {
			t.Fatalf("Get(%d) = %v, %v", k, ok, err)
		}
		evs := db.SlowOps() // newest first
		if len(evs) == 0 || evs[0].Op != obs.OpGet {
			t.Fatalf("Get(%d) left no span", k)
		}
		return evs[0]
	}
	getSpan(0) // brings key 0's block into the one frame
	st0 := db.Stats()
	hit := getSpan(0)
	miss := getSpan(64)
	st1 := db.Stats()
	if dh, dm := st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses; dh != 1 || dm != 1 {
		t.Fatalf("the two Gets made %d hits and %d misses, want 1 and 1", dh, dm)
	}
	if hit.Phases[obs.PhaseCacheRead] <= 0 || hit.Phases[obs.PhaseDevRead] != 0 {
		t.Errorf("hit: cache_read %v, dev_read %v; want only cache_read", hit.Phases[obs.PhaseCacheRead], hit.Phases[obs.PhaseDevRead])
	}
	if miss.Phases[obs.PhaseDevRead] <= 0 || miss.Phases[obs.PhaseCacheRead] != 0 {
		t.Errorf("miss: cache_read %v, dev_read %v; want only dev_read", miss.Phases[obs.PhaseCacheRead], miss.Phases[obs.PhaseDevRead])
	}
	for _, ev := range []SpanEvent{hit, miss} {
		if ev.PhaseSum() != ev.Total {
			t.Errorf("phase sum %v != total %v", ev.PhaseSum(), ev.Total)
		}
	}
}

// TestLockWaitPhaseAttributed: time a write spends between admission and
// getting the shard's writer lock — behind a merge step, under background
// compaction — lands in PhaseLockWait, not in the unattributed remainder.
func TestLockWaitPhaseAttributed(t *testing.T) {
	db, err := Open(traceOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const held = 50 * time.Millisecond
	s := db.shards[0]
	s.writerMu.Lock() // stands in for a merge step holding the lock
	issued, done := make(chan struct{}), make(chan error, 1)
	go func() {
		close(issued)
		done <- db.Put(1, []byte("waits for the lock"))
	}()
	<-issued
	time.Sleep(held)
	s.writerMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	evs := db.SlowOps()
	if len(evs) != 1 || evs[0].Op != obs.OpPut {
		t.Fatalf("captured spans %+v, want the one Put", evs)
	}
	ev := evs[0]
	if ev.PhaseSum() != ev.Total {
		t.Errorf("phase sum %v != total %v", ev.PhaseSum(), ev.Total)
	}
	// The Put was issued at the start of the hold; even a late-scheduled
	// goroutine spends most of it waiting.
	if wait := ev.Phases[obs.PhaseLockWait]; wait < held/10 || wait < ev.Total/2 {
		t.Errorf("lock_wait = %v of a %v Put that queued behind a %v lock hold (other = %v)",
			wait, ev.Total, held, ev.Phases[obs.PhaseOther])
	}
}

// TestCheckpointOnBusAndTimeline: every checkpoint publishes exactly one
// CheckpointEvent carrying its cutoff and its cost split, and the flight
// recorder counts it in the tick it completed in.
func TestCheckpointOnBusAndTimeline(t *testing.T) {
	opts := traceOptions()
	opts.Path = filepath.Join(t.TempDir(), "store.blk")
	opts.WAL = WALOptions{Sync: SyncEvery}
	fastTimeline(t, 5*time.Millisecond)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	events := make(chan CheckpointEvent, 8)
	defer db.Subscribe(func(ev Event) {
		if ce, ok := ev.(CheckpointEvent); ok {
			events <- ce
		}
	})()

	for i := uint64(0); i < 100; i++ {
		if err := db.Put(i, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var ev CheckpointEvent
	select {
	case ev = <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("Checkpoint published no CheckpointEvent")
	}
	if ev.Shard != 0 || ev.WALSeq != 100 {
		t.Errorf("event %+v, want shard 0, WALSeq 100", ev)
	}
	if ev.Capture <= 0 || ev.DeviceSync <= 0 || ev.ManifestSave <= 0 || ev.GC <= 0 {
		t.Errorf("event %+v leaves part of the checkpoint's time unreported", ev)
	}
	select {
	case extra := <-events:
		t.Errorf("a second event for one checkpoint: %+v", extra)
	default:
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var n, nanos int64
		for _, smp := range db.Timeline()[0] {
			n, nanos = n+smp.Checkpoints, nanos+smp.CheckpointNanos
		}
		if n == 1 && nanos > 0 {
			break
		}
		if n > 1 || time.Now().After(deadline) {
			t.Fatalf("timeline counts %d checkpoints (%d ns), want 1", n, nanos)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSampledSpansOnBus checks the event-bus route: with 1-in-2 sampling
// and no slow capture, exactly half the puts publish a SpanEvent.
func TestSampledSpansOnBus(t *testing.T) {
	opts := obsOptions()
	opts.TraceSampleRate = 2
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var spans []SpanEvent
	cancel := db.Subscribe(func(ev Event) {
		if se, ok := ev.(SpanEvent); ok {
			spans = append(spans, se)
		}
	})
	defer cancel()

	for i := uint64(0); i < 10; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	db.bus.Flush()
	if len(spans) != 5 {
		t.Fatalf("published %d span events for 10 puts at rate 2, want 5", len(spans))
	}
	for _, se := range spans {
		if !se.Sampled || se.Slow {
			t.Errorf("span flags sampled=%v slow=%v, want sampled only", se.Sampled, se.Slow)
		}
		if se.PhaseSum() != se.Total {
			t.Errorf("published span sum %v != total %v", se.PhaseSum(), se.Total)
		}
	}
	if len(db.SlowOps()) != 0 {
		t.Error("slow ring populated without a slow threshold")
	}
}

// TestTracingDisabledAddsNoAllocs pins the disabled-path acceptance
// criterion end to end: on a default DB (no Metrics, no tracing), Get of
// a memtable-resident key allocates nothing — the span plumbing adds no
// allocation to the hot read path — and the single write path allocates no
// more than its memtable insert and snapshot publication need.
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put(42, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, err := db.Get(42); !ok || err != nil {
			t.Fatal("lost the key")
		}
	})
	if allocs != 0 {
		t.Errorf("Get allocates %.1f per op with tracing disabled, want 0", allocs)
	}
	if sp := db.tracer.Start(obs.OpGet, 0); sp != nil {
		t.Error("default DB's tracer handed out a span")
	}

	// Writes, with the WAL on so the whole path runs (admission, frame
	// encode, apply, notify). With no reader between two writes L0
	// changes in place and nothing is published, so a write allocates
	// nothing: the op slice (Put and Delete's one-element one stays on the
	// caller's stack, a batch's is logged and applied as staged,
	// unconverted), the WAL frame (encoded into the log's scratch buffer)
	// and the span plumbing add nothing. A write after a reader's capture
	// copies the path the capture froze (one leaf and its array on this
	// 8-key memtable), and that Get publishes the View and the memtable
	// snapshot it captures.
	wdb, err := Open(Options{
		Path:            filepath.Join(t.TempDir(), "db.blk"),
		RecordsPerBlock: 32,
		WAL:             WALOptions{Sync: SyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wdb.Close()
	val := []byte("answer")
	batch := wdb.NewBatch()
	for k := uint64(0); k < 8; k++ {
		batch.Put(k, val)
	}
	if err := wdb.Apply(batch); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"Put", 0, func() error { return wdb.Put(3, val) }},
		{"Delete", 0, func() error { return wdb.Delete(3) }},
		{"Apply of a reused 8-op batch", 0, func() error { return wdb.Apply(batch) }},
		{"Put after a Get", 4, func() error {
			if _, _, err := wdb.Get(3); err != nil {
				return err
			}
			return wdb.Put(3, val)
		}},
	} {
		got := testing.AllocsPerRun(1000, func() {
			if err := tc.fn(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s allocates %.1f per op, want ≤ %.0f", tc.name, got, tc.max)
		}
	}
}

// TestTimelineAndSlowEndpoints drives a sharded DB with a fast flight
// recorder and checks both new HTTP surfaces: /debug/lsm/timeline decodes
// into per-shard sample series whose op counts cover the workload, and
// /debug/lsm/slow serves the captured spans.
func TestTimelineAndSlowEndpoints(t *testing.T) {
	opts := traceOptions()
	opts.Shards = 2
	opts.MetricsAddr = "127.0.0.1:0"
	fastTimeline(t, 10*time.Millisecond)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for i := uint64(0); i < 600; i++ {
		if err := db.Put(i, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Get(11); err != nil {
		t.Fatal(err)
	}
	// Let the recorder tick twice after the workload: a tick may already
	// have collected its counters when the last op landed, and that op then
	// shows up only in the next tick.
	after := len(db.Timeline()[0]) + 2
	deadline := time.Now().Add(2 * time.Second)
	var ticks int
	for time.Now().Before(deadline) {
		if tl := db.Timeline(); len(tl) == 2 && len(tl[0]) >= after {
			ticks = len(tl[0])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ticks < 2 {
		t.Fatal("flight recorder produced no samples")
	}

	addr := db.MetricsAddr()
	resp, err := http.Get("http://" + addr + "/debug/lsm/timeline")
	if err != nil {
		t.Fatal(err)
	}
	var tl [][]TimelineSample
	err = json.NewDecoder(resp.Body).Decode(&tl)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/lsm/timeline: %v", err)
	}
	if len(tl) != 2 {
		t.Fatalf("timeline has %d shard series, want 2", len(tl))
	}
	var ops int64
	for sh, samples := range tl {
		for i, s := range samples {
			if s.Shard != sh {
				t.Errorf("sample in series %d claims shard %d", sh, s.Shard)
			}
			if i > 0 && s.Seq != samples[i-1].Seq+1 {
				t.Errorf("shard %d seq jumps %d → %d", sh, samples[i-1].Seq, s.Seq)
			}
			ops += s.Ops
		}
	}
	if ops != 601 {
		t.Errorf("timeline accounts for %d ops, want 601 (600 puts + 1 get)", ops)
	}

	resp, err = http.Get("http://" + addr + "/debug/lsm/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow []struct {
		Op     int   `json:"Op"`
		Total  int64 `json:"Total"`
		Phases []int64
	}
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/lsm/slow: %v", err)
	}
	if len(slow) == 0 {
		t.Fatal("/debug/lsm/slow is empty despite a 1ns threshold")
	}
	for _, ev := range slow {
		var sum int64
		for _, d := range ev.Phases {
			sum += d
		}
		if sum != ev.Total {
			t.Errorf("served slow span sum %d != total %d", sum, ev.Total)
		}
	}

	// The scrape gains the timeline gauges and the phase histogram.
	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"lsmssd_timeline_ops_per_sec{shard=\"0\"}",
		"lsmssd_timeline_l0_blocks{shard=\"1\"}",
		"lsmssd_phase_duration_seconds_bucket{phase=\"memtable\",le=",
		"lsmssd_phase_duration_seconds_bucket{phase=\"lock_wait\",le=",
		"lsmssd_shard_op_duration_seconds_count{shard=\"0\",op=\"put\"}",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

// TestMetricsWithoutHTTP checks the Options.Metrics satellite: latency
// recording and the flight recorder run with no MetricsAddr, per-shard
// latencies surface under Stats.Shards, and their counts sum to the
// aggregate.
func TestMetricsWithoutHTTP(t *testing.T) {
	opts := obsOptions()
	opts.Metrics = true
	opts.Shards = 4
	fastTimeline(t, 5*time.Millisecond)
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.MetricsAddr() != "" {
		t.Fatal("Metrics alone must not serve HTTP")
	}

	const puts = 400
	for i := uint64(0); i < puts; i++ {
		if err := db.Put(i, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	s := db.Stats()
	var aggPut, shardPut int64
	for _, l := range s.Latencies {
		if l.Op == "put" {
			aggPut = l.Count
		}
	}
	perShardSeen := 0
	for _, ss := range s.Shards {
		for _, l := range ss.Latencies {
			if l.Op == "put" {
				shardPut += l.Count
				perShardSeen++
			}
		}
	}
	if aggPut != puts {
		t.Errorf("aggregate put count = %d, want %d", aggPut, puts)
	}
	if shardPut != aggPut {
		t.Errorf("per-shard put counts sum to %d, aggregate says %d", shardPut, aggPut)
	}
	if perShardSeen != 4 {
		t.Errorf("%d shards report put latencies, want all 4 (keys 0..399 hit every shard)", perShardSeen)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if tl := db.Timeline(); len(tl) == 4 && len(tl[0]) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("flight recorder idle despite Options.Metrics")
}

// TestTracingPreservesBlockAccounting pins the other half of the
// acceptance criterion: full tracing must not perturb the paper's cost
// metric. The same workload, drained after every write, produces
// byte-identical BlocksWritten with tracing saturated and with everything
// off.
func TestTracingPreservesBlockAccounting(t *testing.T) {
	run := func(opts Options) int64 {
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 3000; i++ {
			k := uint64(i*2654435761) % 50_000
			if err := db.Put(k, []byte("workload")); err != nil {
				t.Fatal(err)
			}
			if err := DrainCompaction(db); err != nil {
				t.Fatal(err)
			}
		}
		return db.Stats().BlocksWritten
	}
	plain := run(obsOptions())
	traced := run(traceOptions())
	if plain != traced {
		t.Fatalf("BlocksWritten diverges under tracing: plain=%d traced=%d", plain, traced)
	}
	if plain == 0 {
		t.Fatal("workload wrote nothing; comparison vacuous")
	}
}

// TestResetCoversShardLatenciesAndPhases extends the uniform-window
// guarantee to the new series: ResetIOStats zeroes the per-shard latency
// sets and the tracer's phase histograms together.
func TestResetCoversShardLatenciesAndPhases(t *testing.T) {
	opts := traceOptions()
	opts.Shards = 2
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 200; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); len(s.Latencies) == 0 || len(s.Shards[0].Latencies) == 0 {
		t.Fatal("warm-up recorded nothing")
	}
	if snap := db.tracer.PhaseSnapshot(0); snap[obs.PhaseMemtable].Count == 0 {
		t.Fatal("warm-up traced no memtable phases")
	}
	// A merge step still running would record into the new window.
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	db.ResetIOStats()
	s := db.Stats()
	if len(s.Latencies) != 0 {
		t.Errorf("aggregate latencies survive reset: %+v", s.Latencies)
	}
	for _, ss := range s.Shards {
		if len(ss.Latencies) != 0 {
			t.Errorf("shard %d latencies survive reset: %+v", ss.Shard, ss.Latencies)
		}
	}
	for sh := 0; sh < 2; sh++ {
		if snap := db.tracer.PhaseSnapshot(sh); snap[obs.PhaseMemtable].Count != 0 {
			t.Errorf("shard %d phase histograms survive reset", sh)
		}
	}
}

// fastTimeline makes the flight recorder of every DB the test opens tick
// every d instead of once a second.
func fastTimeline(t *testing.T, d time.Duration) {
	old := timelineInterval
	timelineInterval = d
	t.Cleanup(func() { timelineInterval = old })
}
