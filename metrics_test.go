package lsmssd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// obsOptions mirrors the external tests' smallOptions: tiny levels so a
// few thousand requests exercise many merges.
func obsOptions() Options {
	return Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  2,
		Gamma:           4,
		Delta:           0.25,
		CacheBlocks:     -1,
	}
}

// TestTraceSumsToDeviceWrites is the tentpole accounting property: with a
// sink subscribed from before the first write, summing TotalWrites over
// every MergeEvent reproduces the device's BlocksWritten counter exactly —
// the event taxonomy misses no write path (merged output, both sides'
// repairs, compactions).
func TestTraceSumsToDeviceWrites(t *testing.T) {
	db, err := Open(obsOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var (
		total   int64
		merges  int64
		flushes int
		grows   int
	)
	cancel := db.Subscribe(func(ev Event) {
		switch e := ev.(type) {
		case MergeEvent:
			total += int64(e.TotalWrites())
			merges++
			if e.XBlocks != e.XTo-e.XFrom {
				t.Errorf("merge L%d→L%d: XBlocks=%d but window is [%d,%d)", e.From, e.To, e.XBlocks, e.XFrom, e.XTo)
			}
			if e.Policy == "" {
				t.Error("merge event carries no policy name")
			}
			if (e.Cases.Has(2) || e.Cases.Has(4)) != e.Compaction {
				t.Errorf("Compaction=%v inconsistent with Cases=%s", e.Compaction, e.Cases)
			}
		case FlushEvent:
			flushes++
		case GrowEvent:
			grows++
		}
	})
	defer cancel()

	for i := 0; i < 3000; i++ {
		k := uint64(i*2654435761) % 100_000
		if i%7 == 3 {
			if err := db.Delete(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}

	s := db.Stats()
	db.bus.Flush()
	if d := db.EventDrops(); d != 0 {
		t.Fatalf("bus dropped %d events; accounting check impossible", d)
	}
	if s.BlocksWritten == 0 || merges == 0 {
		t.Fatalf("workload produced no merges (writes=%d merges=%d)", s.BlocksWritten, merges)
	}
	if total != s.BlocksWritten {
		t.Errorf("sum of MergeEvent.TotalWrites = %d, device BlocksWritten = %d", total, s.BlocksWritten)
	}
	if merges != s.Merges {
		t.Errorf("observed %d merge events, Stats.Merges = %d", merges, s.Merges)
	}
	if flushes == 0 {
		t.Error("no flush events observed")
	}
	if grows == 0 || s.Height < 3 {
		t.Errorf("no growth observed (grows=%d height=%d)", grows, s.Height)
	}
}

// TestMetricsEndpoint opens a DB with an ephemeral observability endpoint
// and checks the three surfaces: Prometheus text on /metrics, the JSON
// state dump on /debug/lsm, and Stats.Latencies being populated.
func TestMetricsEndpoint(t *testing.T) {
	opts := obsOptions()
	opts.MetricsAddr = "127.0.0.1:0"
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	addr := db.MetricsAddr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("MetricsAddr() = %q, want a resolved host:port", addr)
	}
	var merges atomic.Int64 // delivered on the bus's dispatcher goroutine
	defer db.Subscribe(func(ev Event) {
		if _, ok := ev.(MergeEvent); ok {
			merges.Add(1)
		}
	})()

	for i := uint64(0); i < 500; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.Get(7); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(0, 50, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}

	text := scrape(t, addr)
	for _, family := range []string{
		"lsmssd_blocks_written_total",
		"lsmssd_merges_total",
		"lsmssd_level_waste_factor{level=\"1\"}",
		"lsmssd_op_duration_seconds_bucket{op=\"put\",le=",
		"lsmssd_op_duration_seconds_count{op=\"get\"}",
		"lsmssd_event_drops_total",
		// Scheduler families are exported before any stall (as zeros), so
		// dashboards need no conditional queries.
		"lsmssd_compaction_queue_depth",
		"lsmssd_compaction_steps_total",
		"lsmssd_write_stalls_total{kind=\"stop\"} 0",
		"lsmssd_write_stall_seconds_total{kind=\"slowdown\"} 0",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	db.bus.Flush()
	if merges.Load() == 0 {
		t.Error("500 puts into a 2-block memtable delivered no MergeEvent to the subscription")
	}

	var dump struct {
		Policy    string `json:"policy"`
		Height    int    `json:"height"`
		Levels    []any  `json:"levels"`
		Latencies []any  `json:"latencies"`
	}
	getJSON(t, addr, "/debug/lsm", &dump)
	if dump.Policy == "" || dump.Height < 3 || len(dump.Levels) < 2 {
		t.Errorf("/debug/lsm dump incomplete: %+v", dump)
	}
	if len(dump.Latencies) == 0 {
		t.Error("/debug/lsm has no latency summaries despite MetricsAddr being set")
	}

	// The latency-attribution endpoints serve valid JSON with tracing off
	// too: an empty slow ring, a timeline that may not have ticked yet.
	var timeline [][]TimelineSample
	getJSON(t, addr, "/debug/lsm/timeline", &timeline)
	var slow []SpanEvent
	getJSON(t, addr, "/debug/lsm/slow", &slow)
	if len(slow) != 0 {
		t.Errorf("/debug/lsm/slow holds %d spans with SlowOpThreshold unset", len(slow))
	}

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}

	// Stats.Latencies reports the same recording.
	s := db.Stats()
	byOp := map[string]LatencyStats{}
	for _, l := range s.Latencies {
		byOp[l.Op] = l
	}
	if byOp["put"].Count != 500 {
		t.Errorf("put latency count = %d, want 500", byOp["put"].Count)
	}
	if byOp["get"].Count != 1 || byOp["scan"].Count != 1 {
		t.Errorf("get/scan latency counts = %d/%d, want 1/1", byOp["get"].Count, byOp["scan"].Count)
	}
	if byOp["put"].Mean <= 0 || byOp["put"].P99 < byOp["put"].P50 {
		t.Errorf("put latency summary implausible: %+v", byOp["put"])
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}

	// The stall families must be live, not just declared: drive a store
	// with a one-block L0 (a 2-block slowdown and a 4-block stop threshold)
	// until admission stalls.
	t.Run("background stalls", func(t *testing.T) {
		opts := obsOptions()
		opts.MetricsAddr = "127.0.0.1:0"
		opts.MemtableBlocks = 1
		db, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		var stallEvents atomic.Int64
		defer db.Subscribe(func(ev Event) {
			if _, ok := ev.(StallEvent); ok {
				stallEvents.Add(1)
			}
		})()
		stalled := func() int64 {
			c := db.Stats().Compaction
			return c.Slowdowns + c.Stops
		}
		for i := uint64(0); i < 200_000 && stalled() == 0; i++ {
			if err := db.Put(i*2654435761%1_000_000, []byte("stall")); err != nil {
				t.Fatal(err)
			}
		}
		if stalled() == 0 {
			t.Fatal("200k writes against a 1-block L0 never tripped backpressure")
		}
		// The stall was published inside the Put that counted it; once the
		// bus has delivered, the subscription must have seen it.
		db.bus.Flush()
		if stallEvents.Load() == 0 {
			t.Error("stalls counted but no StallEvent reached the subscription")
		}
		live := false
		for _, line := range strings.Split(scrape(t, db.MetricsAddr()), "\n") {
			if strings.HasPrefix(line, "lsmssd_write_stalls_total{") && !strings.HasSuffix(line, " 0") {
				live = true
			}
		}
		if !live {
			t.Error("writes stalled but every lsmssd_write_stalls_total sample is zero")
		}
	})
}

// scrape returns the endpoint's /metrics payload, checked to be Prometheus
// text 0.0.4.
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	return string(body)
}

// getJSON decodes the endpoint's reply at path into v.
func getJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestLatenciesOffByDefault: without MetricsAddr no timestamps are taken
// and Stats.Latencies stays empty.
func TestLatenciesOffByDefault(t *testing.T) {
	db, err := Open(obsOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := uint64(0); i < 100; i++ {
		if err := db.Put(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if s := db.Stats(); len(s.Latencies) != 0 {
		t.Errorf("Latencies = %+v without MetricsAddr", s.Latencies)
	}
}

// TestResetIOStatsUniformWindow pins the documented reset semantics by the
// metric table's types: every counter row reads zero after ResetIOStats,
// every gauge and fixed row reads what it read before. The store has seen a
// faulted device read, a scrub pass and a checkpoint first, so the counters
// the reset once skipped are running.
func TestResetIOStatsUniformWindow(t *testing.T) {
	opts := obsOptions()
	opts.Path = filepath.Join(t.TempDir(), "store.blk")
	opts.WAL = WALOptions{Sync: SyncEvery, SegmentBytes: 8 << 10}
	opts.Metrics = true
	opts.CacheBlocks = 8
	opts.BloomBitsPerKey = 8
	opts.ReadRetries = 2
	db, fd := openWithFault(t, opts)

	for i := uint64(0); i < 2000; i++ {
		if err := db.Put(i%500, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	// Let the merges finish before reads start failing: the injected
	// faults are for the Gets below, not for a merge step.
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	if err := db.Scan(0, 50, func(uint64, []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	fd.FailReadAt(fd.Reads() + 1) // every device read fails: some Get below misses the cache
	for k := uint64(0); k < 500 && db.Stats().RetriesExhausted == 0; k++ {
		db.Get(k)
	}
	fd.FailReadAt(0)
	db.shards[0].scrubPass() // also promotes the shard the failed read degraded
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The rotations' checkpoints run on the checkpointer: let them finish,
	// or one may move a counter between the two snapshots.
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}

	s1 := db.Stats()
	if s1.BlocksWritten == 0 || s1.Merges == 0 || s1.Inserts != 2000 || len(s1.Latencies) == 0 {
		t.Fatalf("warm-up did not populate counters: %+v", s1)
	}
	for name, v := range map[string]int64{
		"RetriedReads": s1.RetriedReads, "RetriesExhausted": s1.RetriesExhausted,
		"ScrubPasses": s1.ScrubPasses, "ScrubChecked": s1.ScrubChecked,
		"Checkpoints": s1.Checkpoints, "CheckpointTime": int64(s1.CheckpointTime),
		"WAL.SyncTime": int64(s1.WAL.SyncTime), "WAL.Rotations": s1.WAL.Rotations,
	} {
		if v == 0 {
			t.Errorf("warm-up left %s at zero; the reset of it would go untested", name)
		}
	}

	db.ResetIOStats()
	s2 := db.Stats()

	running := checkReset(t, metricTable, &s1.Counters, &s2.Counters) + checkReset(t, walTable, &s1.WAL, &s2.WAL)
	if running < 20 {
		t.Errorf("only %d counter rows were non-zero before the reset", running)
	}
	for _, l := range s2.Levels {
		if l.BlocksWritten != 0 || l.Compactions != 0 {
			t.Errorf("L%d traffic not reset: written=%d compactions=%d", l.Level, l.BlocksWritten, l.Compactions)
		}
	}
	if len(s2.Latencies) != 0 {
		t.Errorf("latency histograms not reset: %+v", s2.Latencies)
	}

	// Level contents describe the present and must be unaffected.
	if len(s2.Levels) != len(s1.Levels) {
		t.Fatalf("level count changed by reset: %d → %d", len(s1.Levels), len(s2.Levels))
	}
	for i := range s2.Levels {
		if s2.Levels[i].Blocks != s1.Levels[i].Blocks || s2.Levels[i].Records != s1.Levels[i].Records {
			t.Errorf("L%d contents changed by reset", s2.Levels[i].Level)
		}
	}

	// The next window accumulates from zero.
	if err := db.Put(999_999, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if s3 := db.Stats(); s3.Inserts != 1 {
		t.Errorf("post-reset Inserts = %d, want 1", s3.Inserts)
	}
}

// checkReset checks table's rows across a ResetIOStats, from before to
// after: counters read 0, everything else is unmoved. It returns how many
// counters had run before the reset.
func checkReset[S any](t *testing.T, table []metric[S], before, after *S) (running int) {
	t.Helper()
	for i := range table {
		m := &table[i]
		b, a := m.get(before), m.get(after)
		switch {
		case m.typ != counter && a != b:
			t.Errorf("%s{%s} is no counter, yet ResetIOStats moved it %g → %g", m.name, m.kind, b, a)
		case m.typ == counter && a != 0:
			t.Errorf("after ResetIOStats counter %s{%s} = %g, want 0", m.name, m.kind, a)
		case m.typ == counter && b != 0:
			running++
		}
	}
	return running
}
