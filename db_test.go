package lsmssd_test

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"lsmssd"
)

func smallOptions() lsmssd.Options {
	return lsmssd.Options{
		RecordsPerBlock: 8,
		MemtableBlocks:  2,
		Gamma:           4,
		Delta:           0.25,
		CacheBlocks:     -1,
	}
}

func TestOpenDefaultsAndClose(t *testing.T) {
	db, err := lsmssd.Open(lsmssd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get(1)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetDeleteScan(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 500; k++ {
		if err := db.Put(k, []byte(fmt.Sprint(k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 500; k += 3 {
		if err := db.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 500; k++ {
		v, ok, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if k%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d visible", k)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprint(k) {
			t.Fatalf("Get(%d) = %q,%v", k, v, ok)
		}
	}
	var seen []uint64
	if err := db.Scan(100, 110, func(k uint64, v []byte) bool {
		seen = append(seen, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []uint64{100, 101, 103, 104, 106, 107, 109, 110}
	// 102, 105, 108 are multiples of 3 and deleted.
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("scan = %v, want %v", seen, want)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackedDB(t *testing.T) {
	opts := smallOptions()
	opts.Path = filepath.Join(t.TempDir(), "db.blk")
	opts.WAL.Sync = lsmssd.SyncNever
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 300; k++ {
		if err := db.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 300; k++ {
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != "payload" {
			t.Fatalf("Get(%d) = %q,%v,%v", k, v, ok, err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPoliciesAgree(t *testing.T) {
	policies := []lsmssd.Policy{
		lsmssd.Full, lsmssd.RR, lsmssd.ChooseBest, lsmssd.TestMixed, lsmssd.Mixed,
	}
	for _, pol := range policies {
		for _, disableP := range []bool{false, true} {
			name := pol.String()
			if disableP {
				name += "-P"
			}
			t.Run(name, func(t *testing.T) {
				opts := smallOptions()
				opts.MergePolicy = pol
				opts.DisablePreserve = disableP
				// Paranoid audits the paper's invariants after every
				// merge; a policy violating a waste constraint fails the
				// request after it, not just the final Validate. Draining
				// after every write makes the audited merges the paper's
				// inline sequence.
				opts.Paranoid = true
				db, err := lsmssd.Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				model := map[uint64]string{}
				rng := rand.New(rand.NewSource(11))
				for i := 0; i < 4000; i++ {
					k := uint64(rng.Intn(400))
					if rng.Intn(4) == 0 {
						if err := db.Delete(k); err != nil {
							t.Fatal(err)
						}
						delete(model, k)
					} else {
						v := fmt.Sprint(i)
						if err := db.Put(k, []byte(v)); err != nil {
							t.Fatal(err)
						}
						model[k] = v
					}
					if err := lsmssd.DrainCompaction(db); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Validate(); err != nil {
					t.Fatal(err)
				}
				for k := uint64(0); k < 400; k++ {
					v, ok, _ := db.Get(k)
					want, wantOK := model[k]
					if ok != wantOK || (ok && string(v) != want) {
						t.Fatalf("Get(%d) = %q,%v, want %q,%v", k, v, ok, want, wantOK)
					}
				}
			})
		}
	}
}

func TestStatsAndReset(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 200; k++ {
		db.Put(k, []byte("v"))
	}
	// No merge may run between the counters read below, or after the reset.
	if err := lsmssd.DrainCompaction(db); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.BlocksWritten == 0 || s.Inserts != 200 || s.Height < 2 {
		t.Errorf("stats = %+v", s)
	}
	if len(s.Levels) != s.Height-1 {
		t.Errorf("levels %d vs height %d", len(s.Levels), s.Height)
	}
	var sum int64
	for _, ls := range s.Levels {
		sum += ls.BlocksWritten
	}
	if sum != s.BlocksWritten {
		t.Errorf("per-level writes %d != device writes %d", sum, s.BlocksWritten)
	}
	db.ResetIOStats()
	s = db.Stats()
	if s.BlocksWritten != 0 || s.BlocksRead != 0 {
		t.Error("ResetIOStats did not zero traffic")
	}
	if s.LiveBlocks == 0 {
		t.Error("ResetIOStats clobbered live-block accounting")
	}
}

func TestHistogram(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 1000; k += 2 {
		db.Put(k, []byte("v"))
	}
	h, err := db.Histogram(1, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 10 {
		t.Fatalf("histogram has %d buckets", len(h))
	}
	total := 0.0
	for _, f := range h {
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("histogram sums to %v", total)
	}
	if _, err := db.Histogram(99, 1000, 10); err == nil {
		t.Error("histogram of absent level succeeded")
	}
}

func TestTuneMixedRequiresMixed(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.TuneMixed(func() (lsmssd.Request, bool) {
		return lsmssd.Request{}, false
	}, lsmssd.TuneOptions{})
	if err != lsmssd.ErrNotMixed {
		t.Errorf("err = %v, want ErrNotMixed", err)
	}
}

// tuneStream is TuneMixed's sample workload in these tests, a steady-state
// uniform one: it fills to size (200 unless set) live keys, then alternates
// inserts of new keys with deletes of live ones. keys holds every key it
// issued and live those it left present.
type tuneStream struct {
	rng  *rand.Rand
	size int
	live map[uint64]bool
	keys []uint64
}

func newTuneStream(seed int64) *tuneStream {
	return &tuneStream{rng: rand.New(rand.NewSource(seed)), size: 200, live: map[uint64]bool{}}
}

func (g *tuneStream) next() (lsmssd.Request, bool) {
	if len(g.live) < g.size || g.rng.Intn(2) == 0 {
		for {
			k := g.rng.Uint64() % (1 << 40)
			if g.live[k] {
				continue
			}
			g.live[k] = true
			g.keys = append(g.keys, k)
			return lsmssd.Request{Key: k, Value: []byte("tune-payload-xx")}, true
		}
	}
	for {
		k := g.keys[g.rng.Intn(len(g.keys))]
		if !g.live[k] {
			continue
		}
		delete(g.live, k)
		return lsmssd.Request{Delete: true, Key: k}, true
	}
}

// preloadDrained writes n requests of the stream to db, draining its
// compaction after each, so the shards' shapes do not depend on timing.
func preloadDrained(t *testing.T, db *lsmssd.DB, g *tuneStream, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r, _ := g.next()
		var err error
		if r.Delete {
			err = db.Delete(r.Key)
		} else {
			err = db.Put(r.Key, r.Value)
		}
		if err == nil {
			err = lsmssd.DrainCompaction(db)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// tuneMixed preloads db from the stream, then tunes it on the same stream
// with a β measurement window of betaWindow bytes.
func tuneMixed(t *testing.T, db *lsmssd.DB, g *tuneStream, betaWindow int64) lsmssd.TuneResult {
	t.Helper()
	for i := 0; i < 400; i++ {
		r, _ := g.next()
		if r.Delete {
			db.Delete(r.Key)
		} else {
			db.Put(r.Key, r.Value)
		}
	}
	res, err := db.TuneMixed(g.next, lsmssd.TuneOptions{
		BetaWindowBytes:  betaWindow,
		MaxBytesPerCycle: 1 << 26,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTuneMixedLearnsParameters(t *testing.T) {
	opts := smallOptions()
	opts.MergePolicy = lsmssd.Mixed
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	res := tuneMixed(t, db, newTuneStream(3), 1<<17)
	taus, beta, ok := db.MixedParams()
	if !ok {
		t.Fatal("MixedParams not available")
	}
	if beta != res.Beta {
		t.Error("applied β differs from result")
	}
	for lvl, tau := range res.Taus {
		if taus[lvl] != tau {
			t.Errorf("applied τ%d = %v, result %v", lvl, taus[lvl], tau)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("tuned: taus=%v beta=%v in %d measurements", res.Taus, res.Beta, res.Measurements)
}

// TestTuneMixedWritesSurviveCrashReopen: TuneMixed drives its sample
// requests through the write path, so the log holds them like any other
// write. After a crash every put of the stream is present and every delete
// holds. Each sample write is a SyncEvery commit, so a 4 KiB β window
// keeps the stream short.
func TestTuneMixedWritesSurviveCrashReopen(t *testing.T) {
	opts := smallOptions()
	opts.MergePolicy = lsmssd.Mixed
	opts.Path = filepath.Join(t.TempDir(), "db.blk")
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	g := newTuneStream(3)
	tuneMixed(t, db, g, 4<<10)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, k := range g.keys {
		_, ok, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok != g.live[k] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d keys the stream wrote or deleted read wrong after the crash", lost, len(g.keys))
	}
}

// TestTuneMixedShardedWritesSurviveReopen: a 4-shard store under SyncEvery
// learns one (τ, β) from its pooled level cycles and sets it on every
// shard. Each sample request is one logged frame, and after a crash the
// reopened store holds what the stream wrote.
func TestTuneMixedShardedWritesSurviveReopen(t *testing.T) {
	opts := smallOptions()
	opts.Gamma = 3
	opts.Shards = 4
	opts.MergePolicy = lsmssd.Mixed
	opts.Path = filepath.Join(t.TempDir(), "db.blk")
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	g := newTuneStream(5)
	g.size = 1400
	preloadDrained(t, db, g, 2000)
	if h := db.Stats().Height; h != 4 {
		t.Fatalf("height %d after the preload, want 4", h)
	}
	appends := db.Stats().WAL.Appends
	supplied := 0
	res, err := db.TuneMixed(func() (lsmssd.Request, bool) {
		supplied++
		return g.next()
	}, lsmssd.TuneOptions{
		TauGrid:          []float64{0, 0.5, 1},
		BetaWindowBytes:  1 << 14,
		MaxBytesPerCycle: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tuned: taus=%v beta=%v in %d measurements over %d requests", res.Taus, res.Beta, res.Measurements, supplied)
	if _, ok := res.Taus[2]; !ok {
		t.Errorf("no τ2 learned: %+v", res)
	}
	for i := 0; i < opts.Shards; i++ {
		taus, beta, _ := lsmssd.ShardMixedParams(db, i)
		if beta != res.Beta || !maps.Equal(taus, res.Taus) {
			t.Errorf("shard %d holds taus=%v beta=%v, TuneMixed returned taus=%v beta=%v", i, taus, beta, res.Taus, res.Beta)
		}
	}
	if got := db.Stats().WAL.Appends - appends; got != int64(supplied) {
		t.Errorf("%d frames logged for %d sample requests", got, supplied)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	db, err = lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range g.keys {
		_, ok, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if ok != g.live[k] {
			t.Fatalf("key %d: present %v after the crash, the stream left it %v", k, ok, g.live[k])
		}
	}
}

// TestTuneMixedConcurrentWriter: another goroutine may write while
// TuneMixed learns — its merges perturb the measurements, but the learner's
// hooks, which run on the shards' scheduler goroutines, race with nothing.
// Run it under -race.
func TestTuneMixedConcurrentWriter(t *testing.T) {
	opts := smallOptions()
	opts.Shards = 2
	opts.MergePolicy = lsmssd.Mixed
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := newTuneStream(7)
	preloadDrained(t, db, g, 400)
	done := make(chan error)
	go func() {
		var err error
		for k := uint64(0); k < 3000 && err == nil; k++ {
			err = db.Put(1<<41+k, []byte("concurrent"))
		}
		done <- err
	}()
	_, err = db.TuneMixed(g.next, lsmssd.TuneOptions{BetaWindowBytes: 1 << 14, MaxBytesPerCycle: 1 << 22})
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				k := uint64(g*1000 + rng.Intn(500))
				switch rng.Intn(3) {
				case 0:
					db.Put(k, []byte{byte(i)})
				case 1:
					db.Delete(k)
				default:
					db.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[lsmssd.Policy]string{
		lsmssd.Full: "Full", lsmssd.RR: "RR", lsmssd.ChooseBest: "ChooseBest",
		lsmssd.TestMixed: "TestMixed", lsmssd.Mixed: "Mixed", lsmssd.Policy(99): "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

// Property: the public API matches a map model under random operations and
// random (valid) option combinations, compaction drained after each write.
func TestQuickDBModel(t *testing.T) {
	f := func(seed int64, polRaw uint8, bloom bool) bool {
		opts := smallOptions()
		opts.MergePolicy = lsmssd.Policy(int(polRaw) % 5)
		opts.Seed = seed
		if bloom {
			opts.BloomBitsPerKey = 8
		}
		db, err := lsmssd.Open(opts)
		if err != nil {
			return false
		}
		defer db.Close()
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64]byte{}
		for i := 0; i < 1500; i++ {
			k := uint64(rng.Intn(200))
			if rng.Intn(3) == 0 {
				if db.Delete(k) != nil {
					return false
				}
				delete(model, k)
			} else {
				v := byte(rng.Intn(256))
				if db.Put(k, []byte{v}) != nil {
					return false
				}
				model[k] = v
			}
			if lsmssd.DrainCompaction(db) != nil {
				return false
			}
		}
		if db.Validate() != nil {
			return false
		}
		for k := uint64(0); k < 200; k++ {
			v, ok, err := db.Get(k)
			if err != nil {
				return false
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && v[0] != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	// Zero options must produce the paper's defaults; explicit values
	// must survive.
	db, err := lsmssd.Open(lsmssd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	// CacheBlocks: 0 means default (enabled), negative disables.
	for _, cb := range []int{0, -1, 64} {
		db, err := lsmssd.Open(lsmssd.Options{CacheBlocks: cb})
		if err != nil {
			t.Fatalf("CacheBlocks=%d: %v", cb, err)
		}
		db.Close()
	}
	// Bad file path surfaces at Open.
	if _, err := lsmssd.Open(lsmssd.Options{Path: "/nonexistent-dir/x.blk"}); err == nil {
		t.Error("bad path accepted")
	}
	// Invalid derived config surfaces at Open.
	if _, err := lsmssd.Open(lsmssd.Options{Gamma: 1}); err == nil {
		t.Error("Gamma=1 accepted")
	}
}

func TestTuneMixedStalledGenerator(t *testing.T) {
	opts := smallOptions()
	opts.MergePolicy = lsmssd.Mixed
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 300; k++ {
		db.Put(k, []byte("v"))
	}
	calls := 0
	_, err = db.TuneMixed(func() (lsmssd.Request, bool) {
		calls++
		return lsmssd.Request{}, false // immediately exhausted
	}, lsmssd.TuneOptions{BetaWindowBytes: 1 << 16})
	if err == nil {
		t.Error("tuning with a stalled generator succeeded")
	}
	if calls != 1 {
		t.Errorf("next called %d times after it said it was exhausted, want once", calls)
	}
}

func TestForceGrowPublic(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 200; k++ {
		db.Put(k, []byte("v"))
	}
	h := db.Stats().Height
	db.ForceGrow()
	if got := db.Stats().Height; got != h+1 {
		t.Errorf("height = %d after ForceGrow, want %d", got, h+1)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if _, ok, _ := db.Get(k); !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestMixedParamsNonMixed(t *testing.T) {
	db, err := lsmssd.Open(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, _, ok := db.MixedParams(); ok {
		t.Error("MixedParams reported ok for ChooseBest policy")
	}
}

func TestMixedPresetParams(t *testing.T) {
	opts := smallOptions()
	opts.MergePolicy = lsmssd.Mixed
	opts.MixedTaus = map[int]float64{2: 0.3}
	opts.MixedBeta = true
	db, err := lsmssd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := uint64(0); k < 400; k++ {
		db.Put(k, []byte("v"))
	}
	taus, beta, ok := db.MixedParams()
	if !ok || !beta {
		t.Fatalf("params = %v,%v,%v", taus, beta, ok)
	}
	if db.Stats().Height >= 4 && taus[2] != 0.3 {
		t.Errorf("tau2 = %v, want 0.3", taus[2])
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}
