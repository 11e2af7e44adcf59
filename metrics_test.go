package lsmssd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsmssd/internal/faultdev"
	"lsmssd/internal/storage"
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

// TestCountersNeverDecrease pins what Stats promises a scraper: every row
// typed counter, the per-level write series and the latency counts only
// grow while writers, readers, checkpoints, a scrub pass and a faulted read
// run beside a poller; and a window taken by subtracting two drained
// snapshots keeps the identities the totals keep.
func TestCountersNeverDecrease(t *testing.T) {
	opts := obsOptions()
	opts.Path = filepath.Join(t.TempDir(), "store.blk")
	opts.WAL = WALOptions{Sync: SyncEvery, SegmentBytes: 8 << 10}
	opts.Shards = 2
	opts.Metrics = true
	opts.CacheBlocks = 8
	opts.BloomBitsPerKey = 8
	opts.ReadRetries = 2
	fds := make([]*faultdev.Device, opts.Shards)
	opts.DeviceWrap = func(shard int, dev storage.Device) storage.Device {
		fds[shard] = faultdev.Wrap(dev, faultdev.Options{})
		return fds[shard]
	}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	stop := make(chan struct{})
	var drops []string
	polls := 0
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		prev := db.Stats()
		for {
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(100 * time.Microsecond)
			cur := db.Stats()
			drops = append(drops, decreases(&prev, &cur)...)
			prev = cur
			polls++
		}
	}()

	// Four writers, writer w on keys ≡ w mod 4, so each shard has two;
	// every write is one op, so it is one WAL frame and one request.
	const writers = 4
	write := func(n int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w uint64) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					k := uint64(i%300)*writers + w
					var err error
					if i%5 == 4 {
						err = db.Delete(k)
					} else {
						err = db.Put(k, []byte("payload"))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(uint64(w))
		}
		wg.Wait()
	}

	readersDone := make(chan struct{})
	readStop := make(chan struct{})
	go func() {
		defer close(readersDone)
		for k := uint64(0); ; k = (k + 7) % 1200 {
			select {
			case <-readStop:
				return
			default:
			}
			db.Get(k)
			_ = db.Scan(k, k+40, func(uint64, []byte) bool { return true })
		}
	}()
	checkpointed := make(chan error, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		checkpointed <- db.Checkpoint()
	}()
	write(600)
	close(readStop)
	<-readersDone
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}

	// Reads fail only once the merges are done: the fault is for a Get.
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	fds[0].FailReadAt(fds[0].Reads() + 1)
	for k := uint64(0); k < 1200 && db.Stats().RetriesExhausted == 0; k += 2 {
		db.Get(k)
	}
	fds[0].FailReadAt(0)
	db.shards[0].scrubPass() // also promotes the shard the failed read degraded
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}

	// A window is the difference of two drained snapshots.
	const windowOps = 200
	before := db.Stats()
	write(windowOps)
	if err := DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	close(stop)
	<-polled

	for i, d := range drops {
		if i == 10 {
			t.Errorf("... and %d more decreases", len(drops)-i)
			break
		}
		t.Error(d)
	}
	if polls < 10 {
		t.Errorf("only %d polls", polls)
	}
	t.Logf("%d polls", polls)

	if got := after.Requests - before.Requests; got != writers*windowOps {
		t.Errorf("window Requests = %d, want %d", got, writers*windowOps)
	}
	if got, want := after.WAL.Appends-before.WAL.Appends, after.Requests-before.Requests; got != want {
		t.Errorf("window WAL.Appends = %d, Requests = %d: single-op writes are one frame each", got, want)
	}
	written := after.BlocksWritten - before.BlocksWritten
	if levels := levelWrites(after.Levels) - levelWrites(before.Levels); levels != written || written == 0 {
		t.Errorf("window per-level writes sum to %d, BlocksWritten moved %d", levels, written)
	}

	// Every counter ran, so none of them was checked vacuously.
	for name, v := range map[string]int64{
		"RetriedReads": after.RetriedReads, "RetriesExhausted": after.RetriesExhausted,
		"ScrubPasses": after.ScrubPasses, "ScrubChecked": after.ScrubChecked,
		"Checkpoints": after.Checkpoints, "CheckpointTime": int64(after.CheckpointTime),
		"WAL.SyncTime": int64(after.WAL.SyncTime), "WAL.Rotations": after.WAL.Rotations,
		"Compaction.Steps": after.Compaction.Steps, "Scans": after.Scans,
	} {
		if v == 0 {
			t.Errorf("the run left %s at zero", name)
		}
	}
	if len(after.Latencies) == 0 {
		t.Error("no latencies recorded")
	}
}

// decreases lists every counter of cur that reads less than it did in prev:
// the counter rows of both tables, the latency counts, and the per-level
// write series, aggregate and per shard. A tree that grows relabels its
// bottom level one deeper and inserts an empty level above it, so levels
// are compared one by one only while no shard's level count changed; their
// sum must never decrease.
func decreases(prev, cur *Stats) []string {
	out := counterDrops(nil, "", metricTable, &prev.Counters, &cur.Counters)
	out = counterDrops(out, "", walTable, &prev.WAL, &cur.WAL)
	sameShape := true
	for i := range cur.Shards {
		p, c := &prev.Shards[i], &cur.Shards[i]
		where := fmt.Sprintf("shard %d: ", i)
		out = counterDrops(out, where, metricTable, &p.Counters, &c.Counters)
		out = latencyDrops(out, where, p.Latencies, c.Latencies)
		same := len(p.Levels) == len(c.Levels)
		out = levelDrops(out, where, p.Levels, c.Levels, same)
		sameShape = sameShape && same
	}
	out = latencyDrops(out, "", prev.Latencies, cur.Latencies)
	return levelDrops(out, "", prev.Levels, cur.Levels, sameShape)
}

func counterDrops[S any](out []string, where string, table []metric[S], prev, cur *S) []string {
	for i := range table {
		m := &table[i]
		if p, c := m.get(prev), m.get(cur); m.typ == counter && c < p {
			out = append(out, fmt.Sprintf("%s%s{%s} fell %g → %g", where, m.name, m.kind, p, c))
		}
	}
	return out
}

func latencyDrops(out []string, where string, prev, cur []LatencyStats) []string {
	count := make(map[string]int64, len(cur))
	for _, l := range cur {
		count[l.Op] = l.Count
	}
	for _, l := range prev {
		if c := count[l.Op]; c < l.Count {
			out = append(out, fmt.Sprintf("%slatency count of %s fell %d → %d", where, l.Op, l.Count, c))
		}
	}
	return out
}

func levelDrops(out []string, where string, prev, cur []LevelStats, perLevel bool) []string {
	if p, c := levelWrites(prev), levelWrites(cur); c < p {
		out = append(out, fmt.Sprintf("%sper-level writes fell %d → %d in sum", where, p, c))
	}
	if p, c := levelCompactions(prev), levelCompactions(cur); c < p {
		out = append(out, fmt.Sprintf("%sper-level compactions fell %d → %d in sum", where, p, c))
	}
	for i := 0; perLevel && i < len(cur); i++ {
		p, c := &prev[i], &cur[i]
		if c.BlocksWritten < p.BlocksWritten || c.Compactions < p.Compactions {
			out = append(out, fmt.Sprintf("%sL%d fell: written %d → %d, compactions %d → %d",
				where, c.Level, p.BlocksWritten, c.BlocksWritten, p.Compactions, c.Compactions))
		}
	}
	return out
}

func levelWrites(ls []LevelStats) (n int64) {
	for _, l := range ls {
		n += l.BlocksWritten
	}
	return n
}

func levelCompactions(ls []LevelStats) (n int64) {
	for _, l := range ls {
		n += l.Compactions
	}
	return n
}
