package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"lsmssd"
)

const recordBytes = 8 + valueLen // request bytes of one Put, as the engine counts them

// store is an open DB plus what set-up knows about its contents.
type store struct {
	db   *lsmssd.DB
	opts lsmssd.Options
	dir  string
	pre  []uint64 // preloaded keys, each at preloadVer

	preWrites int64 // device block writes the preload caused
	preBytes  int64 // request bytes of the preload
}

// preloadKeys derives the preloaded key set from the seed alone, so every
// set-up repetition and every process given the same seed builds the same
// store.
func (s spec) preloadKeys(seed int64) []uint64 {
	keys := make([]uint64, s.preload)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range keys {
		if s.dense {
			keys[i] = uint64(i)
		} else {
			keys[i] = mkKey(r.Uint64(), int(r.Uint64()&1), false, false)
		}
	}
	return keys
}

// setUp builds the store a workload measures: open, preload in batches,
// drain compaction, and for the lookup workload close, reopen and warm up,
// because a reader of an existing store pays for exactly that.
func setUp(s spec, seed int64, dir string, tweak func(*lsmssd.Options)) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &store{opts: s.options(filepath.Join(dir, "db")), dir: dir, pre: s.preloadKeys(seed)}
	if tweak != nil {
		tweak(&st.opts)
	}
	db, err := lsmssd.Open(st.opts)
	if err != nil {
		return nil, err
	}
	st.db = db
	b := db.NewBatch()
	for i := 0; i < len(st.pre); i += preloadBatch {
		b.Reset()
		for _, k := range st.pre[i:min(i+preloadBatch, len(st.pre))] {
			b.Put(k, mkValue(k, preloadVer))
		}
		if err := db.Apply(b); err != nil {
			return nil, errors.Join(fmt.Errorf("preload: %w", err), db.Close())
		}
	}
	if err := drain(db); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	st.preWrites = db.Stats().BlocksWritten
	st.preBytes = int64(len(st.pre)) * recordBytes
	if s.reopen {
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close before reopen: %w", err)
		}
		if st.db, err = lsmssd.Open(st.opts); err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		r := rand.New(rand.NewSource(seed ^ 0x3a93))
		for i := 0; i < s.warmGets; i++ {
			k := st.pre[r.Intn(len(st.pre))]
			if v, ok, err := st.db.Get(k); err != nil || !ok || !checkValue(k, preloadVer, v) {
				return nil, errors.Join(fmt.Errorf("warm-up get %d: found=%v err=%v", k, ok, err), st.db.Close())
			}
		}
	}
	return st, nil
}

// drain waits until no shard has an overflowing level queued for the
// background scheduler, so runs with the same inputs end with the same
// amount of compaction done.
func drain(db *lsmssd.DB) error {
	deadline := time.Now().Add(60 * time.Second)
	for db.Stats().Compaction.QueueDepth > 0 {
		if time.Now().After(deadline) {
			return errors.New("compaction did not drain within 60 s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// plan is the pre-generated input of one measured phase.
type plan struct {
	ops      [2][]op
	interval [2]int64 // open loop: nanoseconds between scheduled calls; 0 = closed loop
	models   [2]*model
	reqBytes int64 // request bytes of the phase's writes, as the engine counts them
}

func (p *plan) countBytes() {
	for _, ops := range p.ops {
		for _, o := range ops {
			switch o.kind {
			case opPut, opBatchPut:
				p.reqBytes += recordBytes
			case opDelete:
				p.reqBytes += 8
			}
		}
	}
}

// makePlan generates the measured phase of s for the given seed.
func makePlan(s spec, seed int64, seconds float64, pre []uint64) *plan {
	p := &plan{}
	for c := range p.ops {
		r := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		switch s.name {
		case "load":
			p.ops[c], p.models[c] = genLoad(r, c, int(float64(s.closedOps)*seconds)/2)
		case "steady":
			p.models[c] = newModel(0)
			if c == 0 {
				n := int(float64(s.putRate) * seconds)
				p.models[c] = newModel(n)
				p.ops[c] = genFreshPuts(r, p.models[c], c, n)
				p.interval[c] = int64(time.Second) / int64(s.putRate)
			} else {
				p.ops[c] = genGets(r, pre, int(float64(s.getRate)*seconds), false)
				p.interval[c] = int64(time.Second) / int64(s.getRate)
			}
		case "lookup":
			p.models[c] = newModel(0)
			p.ops[c] = genGets(r, pre, int(float64(s.closedOps)*seconds)/2, true)
		case "durable-mix":
			p.ops[c], p.models[c] = genMix(r, c, len(pre), int(float64(s.closedOps)*seconds)/2)
		}
	}
	p.countBytes()
	return p
}

// genLoad: 90% Put of a fresh uniform key, 10% Delete of a key this writer
// inserted earlier and has not deleted since.
func genLoad(r *rand.Rand, c, n int) ([]op, *model) {
	m := newModel(n)
	ops := make([]op, 0, n)
	live := make([]uint64, 0, n)
	for len(ops) < n {
		if r.Intn(10) == 0 && len(live) > 0 {
			j := r.Intn(len(live))
			k := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			m.del(k)
			ops = append(ops, op{key: k, kind: opDelete})
			continue
		}
		k := mkKey(r.Uint64(), c, true, false)
		if m.expect(k) == 0 {
			live = append(live, k)
		}
		ops = append(ops, op{key: k, ver: m.bump(k), kind: opPut})
	}
	return ops, m
}

func genFreshPuts(r *rand.Rand, m *model, c, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		k := mkKey(r.Uint64(), c, true, false)
		ops[i] = op{key: k, ver: m.bump(k), kind: opPut}
	}
	return ops
}

// genGets reads preloaded keys; with absent set, every other Get (at
// random) is for a key that was never inserted.
func genGets(r *rand.Rand, pre []uint64, n int, absent bool) []op {
	ops := make([]op, n)
	for i := range ops {
		if absent && r.Intn(2) == 0 {
			ops[i] = op{key: mkKey(r.Uint64(), int(r.Uint64()&1), false, true), kind: opGet}
		} else {
			ops[i] = op{key: pre[r.Intn(len(pre))], ver: preloadVer, kind: opGet}
		}
	}
	return ops
}

// genMix: 50% Apply of an 8-Put batch, 45% Get, 5% Scan of 100 consecutive
// keys, over this client's half of the dense preloaded keys, Zipfian with
// theta 0.99. Rank r is the client's r-th key, so hot keys share blocks and
// the hot set fits the cache.
func genMix(r *rand.Rand, c, dense, n int) ([]op, *model) {
	own := dense / 2
	ownKey := func(i int) uint64 { return uint64(i/4*8 + c*4 + i%4) }
	m := newModel(own)
	for i := 0; i < own; i++ {
		m.bump(ownKey(i))
	}
	z := newZipf(own, 0.99)
	hot := func() uint64 { return ownKey(z.next(r)) }
	var ops []op
	for calls := 0; calls < n; calls++ {
		switch x := r.Intn(100); {
		case x < 50:
			ops = append(ops, op{kind: opApply, n: batchLen})
			for j := 0; j < batchLen; j++ {
				k := hot()
				ops = append(ops, op{key: k, ver: m.bump(k), kind: opBatchPut})
			}
		case x < 95:
			k := hot()
			ops = append(ops, op{key: k, ver: m.expect(k), kind: opGet})
		default:
			lo := min(hot(), uint64(dense-scanLen))
			ops = append(ops, op{key: lo, ver: 1, kind: opScan, n: scanLen})
		}
	}
	return ops, m
}

// makeProbe generates the single-client calls that follow the measured
// phase (see probeSizes). It extends client 0's model with what it writes.
func makeProbe(s spec, seed int64, pre []uint64, m *model) (quiet, rounds *plan) {
	r := rand.New(rand.NewSource(seed*7919 + 5))
	quiet, rounds = &plan{}, &plan{}
	quiet.models[0], rounds.models[0] = m, m
	get := func() op {
		// Half from the keys the run wrote, half preloaded, where both exist.
		if len(m.keys) > 0 && (len(pre) == 0 || s.dense || r.Intn(2) == 0) {
			k := m.keys[r.Intn(len(m.keys))]
			return op{key: k, ver: m.expect(k), kind: opGet}
		}
		return op{key: pre[r.Intn(len(pre))], ver: preloadVer, kind: opGet}
	}
	freshPut := func(kind opKind) op {
		k := mkKey(r.Uint64(), 0, true, false)
		return op{key: k, ver: m.bump(k), kind: kind}
	}
	for i := 0; i < s.probe.quietGets; i++ {
		quiet.ops[0] = append(quiet.ops[0], get())
	}
	var ops []op
	for round := 0; round < probeRounds; round++ {
		share := func(n int) int { return n*(round+1)/probeRounds - n*round/probeRounds }
		for i := share(s.probe.gets); i > 0; i-- {
			ops = append(ops, get())
		}
		for i := share(s.probe.scans); i > 0; i-- {
			ops = append(ops, op{key: r.Uint64() & (keyMask >> 1), kind: opScan, n: scanLen})
		}
		for i := share(s.probe.puts); i > 0; i-- {
			ops = append(ops, freshPut(opPut))
		}
		for i := share(s.probe.applies); i > 0; i-- {
			ops = append(ops, op{kind: opApply, n: batchLen})
			for j := 0; j < batchLen; j++ {
				ops = append(ops, freshPut(opBatchPut))
			}
		}
	}
	rounds.ops[0] = ops
	quiet.countBytes()
	rounds.countBytes()
	return quiet, rounds
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	recs          []*recorder
	wall          float64 // seconds on the clock
	drainS        float64 // seconds the clock ran after the last call, draining
	cpu           float64 // process CPU seconds over the same window
	before, after lsmssd.Stats
	start, end    int64 // tracer-epoch nanoseconds, traced runs only
}

// robustWall is the phase's length for ops_s. An open loop's length is what
// the clock says: the achieved rate is the point. A closed loop's is its
// slowest client's robustSeconds plus the drain, so that a host stall
// during one slice of the run does not move the throughput.
func (r *phaseResult) robustWall(p *plan) float64 {
	if p.interval[0] > 0 {
		return r.wall
	}
	var clients float64
	for _, rec := range r.recs {
		clients = max(clients, robustSeconds(rec, maxSlices))
	}
	return clients + r.drainS
}

func (r *phaseResult) ops() (ops, slow, failed int) {
	for _, rec := range r.recs {
		ops += rec.ops
		slow += rec.slow
		failed += rec.failed
	}
	return
}

// runPhase executes a plan: one goroutine per client with work, all
// released together. With drainInClock the clock runs on until compaction
// has drained, which makes the work of two runs equal.
func runPhase(db *lsmssd.DB, p *plan, tr *tracer, drainInClock bool) (*phaseResult, error) {
	res := &phaseResult{before: db.Stats()}
	for c, ops := range p.ops {
		if len(ops) > 0 {
			res.recs = append(res.recs, newRecorder(ops, tr != nil, p.interval[c] > 0))
		}
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	if tr != nil {
		res.start = int64(t0.Sub(tr.epoch))
		tr.beginWindow(db)
	}
	var wg sync.WaitGroup
	started := 0
	for c, ops := range p.ops {
		if len(ops) == 0 {
			continue
		}
		// Client clocks, and the open-loop schedule, run from the phase start.
		cl := &client{db: db, rec: res.recs[started], epoch: t0}
		started++
		wg.Add(1)
		go func(ops []op, interval int64) {
			defer wg.Done()
			if interval > 0 {
				cl.runOpen(ops, interval)
			} else {
				cl.runClosed(ops)
			}
		}(ops, p.interval[c])
	}
	wg.Wait()
	t1 := time.Now()
	var err error
	if drainInClock {
		err = drain(db)
	}
	t2 := time.Now()
	res.wall = t2.Sub(t0).Seconds()
	res.drainS = t2.Sub(t1).Seconds()
	res.cpu = cpuSeconds() - cpu0
	res.after = db.Stats()
	if tr != nil {
		res.end = int64(t2.Sub(tr.epoch))
		tr.endWindow()
	}
	return res, err
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// readBack checks a sample of keys against the models and the preload, then
// the store's own structural validation. It returns calls made and failed.
func readBack(db *lsmssd.DB, seed int64, pre []uint64, dense bool, models [2]*model, sample int) (attempted, failed int) {
	r := rand.New(rand.NewSource(seed ^ 0x0bac))
	check := func(k uint64, want uint32) {
		attempted++
		v, found, err := db.Get(k)
		if err != nil || found != (want != 0) || (found && !checkValue(k, want, v)) {
			failed++
		}
	}
	for i := 0; i < sample; i++ {
		m := models[i%2]
		if m != nil && len(m.keys) > 0 && (i%4 < 2 || len(pre) == 0 || dense) {
			k := m.keys[r.Intn(len(m.keys))]
			check(k, m.expect(k))
		} else if len(pre) > 0 {
			check(pre[r.Intn(len(pre))], preloadVer)
		}
	}
	attempted++
	if err := db.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		failed++
	}
	return
}

// crashCheck cuts power (DB.Crash drops everything not fsynced), reopens,
// and requires every key at the version of its last acknowledged write.
func crashCheck(st *store, models [2]*model) (attempted, lost int, reopenS float64, err error) {
	if err = st.db.Crash(); err != nil {
		return 0, 0, 0, fmt.Errorf("crash: %w", err)
	}
	t0 := time.Now()
	// The decorator, if any, wrapped the crashed instance's devices.
	st.opts.DeviceWrap = nil
	if st.db, err = lsmssd.Open(st.opts); err != nil {
		return 0, 0, 0, fmt.Errorf("reopen after crash: %w", err)
	}
	reopenS = time.Since(t0).Seconds()
	for _, m := range models {
		if m == nil {
			continue
		}
		for _, k := range m.keys {
			attempted++
			want := m.expect(k)
			v, found, gerr := st.db.Get(k)
			if gerr != nil || found != (want != 0) || (found && !checkValue(k, want, v)) {
				lost++
			}
		}
	}
	return
}

// walBytes sums the write-ahead log segments on disk.
func walBytes(dir string) int64 {
	files, _ := filepath.Glob(filepath.Join(dir, "db*.wal.*"))
	var n int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}
