package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"lsmssd"
	"lsmssd/bench/layers"
)

// runOpts is one workload run.
type runOpts struct {
	spec    spec
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	workdir string // store directories are created and removed under here
	outdir  string // trace files go here
}

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int     // timings only: how many samples the value summarises
}

// result is the last line of standard output, in the driver's format.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *result) countPhase(p *phaseResult) {
	ops, _, failed := p.ops()
	r.count(ops, failed)
}

func (o runOpts) storeDir(tag string) string {
	return filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%s", o.spec.name, os.Getpid(), tag))
}

func closeAndRemove(st *store) error {
	return errors.Join(st.db.Close(), os.RemoveAll(st.dir))
}

// runUntraced measures the end-to-end metrics with every kind of engine
// observability off and no device decorator installed.
func runUntraced(o runOpts) (*result, error) {
	s := o.spec
	out := &result{Metrics: make(map[string]metric)}

	// Set-up, repeated; the last store is the one measured.
	var st *store
	setups := make([]float64, 0, s.setupReps)
	for i := 0; i < s.setupReps; i++ {
		if st != nil {
			if err := closeAndRemove(st); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(s, o.seed, o.storeDir(strconv.Itoa(i)), nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer os.RemoveAll(st.dir)

	p := makePlan(s, o.seed, o.seconds, st.pre)
	main, err := runPhase(st.db, p, nil, s.timedDrain)
	if err != nil {
		return nil, errors.Join(err, st.db.Close())
	}
	if err := drain(st.db); err != nil {
		return nil, errors.Join(err, st.db.Close())
	}
	out.countPhase(main)
	drained := st.db.Stats()
	logBytes := walBytes(st.dir)
	liveKeys := len(st.pre)
	if s.dense {
		liveKeys = 0 // the models hold every dense key
	}
	for _, m := range p.models {
		liveKeys += m.live()
	}

	quietPlan, roundsPlan := makeProbe(s, o.seed, st.pre, p.models[0])
	quiet, err := runPhase(st.db, quietPlan, nil, false)
	if err == nil {
		out.countPhase(quiet)
	}
	probe, err2 := runPhase(st.db, roundsPlan, nil, false)
	if err = errors.Join(err, err2); err != nil {
		return nil, errors.Join(err, st.db.Close())
	}
	out.countPhase(probe)
	rss := peakRSSMB()

	// A call type's median comes from the probe when the probe issues that
	// type, from the measured phase otherwise (see probeSizes).
	lat := func(name string, class int) {
		recs := probe.recs
		if samples(recs, class) == 0 {
			recs = main.recs
		}
		v, n := slicedQuantile(recs, class, 0.50, maxSlices)
		out.Metrics[name] = metric{Value: v / 1e3, Unit: unitOf(endToEnd, name), samples: n}
	}
	lat("put_p50_us", lPut)
	lat("get_p50_us", lGet)
	lat("apply_p50_us", lApply)
	lat("scan_p50_us", lScan)

	ops, slow, _ := main.ops()
	set := func(name string, v float64) { out.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	out.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", samples: len(setups)}
	set("ops_s", float64(ops)/main.robustWall(p))
	set("slo_ok_frac", 1-float64(slow)/float64(ops))
	// Device writes per MB of request bytes over the store's life so far:
	// the preload and the measured phase (the probe is excluded). Counters
	// restart at a reopen, so there the preload's writes are added back.
	written := drained.BlocksWritten
	if s.reopen {
		written += st.preWrites
	}
	set("blocks_written_per_mb", float64(written)/(float64(st.preBytes+p.reqBytes)/(1<<20)))
	if len(quietPlan.ops[0]) == 0 {
		quiet = main // a Get-only workload is its own quiet window
	}
	quietGets, _, _ := quiet.ops()
	set("blocks_read_per_get", float64(quiet.after.BlocksRead-quiet.before.BlocksRead)/float64(quietGets))
	set("space_amp", float64(drained.LiveBlocks*blockSize+logBytes)/float64(liveKeys*recordBytes))
	set("peak_rss_mb", rss)

	// Untimed checks: a read-back sample, the store's own validation, and
	// for the durable workload a power cut that must lose nothing acked.
	out.count(readBack(st.db, o.seed, st.pre, s.dense, p.models, min(readBackKeys, ops)))
	if s.sync == lsmssd.SyncEvery {
		attempted, lost, _, err := crashCheck(st, p.models)
		if err != nil {
			return nil, err
		}
		if lost > 0 {
			fmt.Fprintf(os.Stderr, "crash check: %d of %d keys lost an acknowledged write\n", lost, attempted)
		}
		out.count(attempted, lost)
	}
	if err := st.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	set("ok_frac", 1-float64(out.Failed)/float64(out.Attempted))
	out.Correct = out.Failed == 0
	return out, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// runTraced produces the per-layer metrics. It runs the workload's measured
// phase three times at a third of the length, each on a freshly set-up
// store: plain (the baseline), with the benchmark's own tracing on (spans,
// device decorator, event subscription), and with the engine's
// observability on (Metrics and TraceSampleRate 64). The second gives the
// counts, device times and trace file; the differences in ops_s are the
// two tracing overheads. The layer replays run last.
func runTraced(o runOpts) (*result, error) {
	s := o.spec
	out := &result{Metrics: make(map[string]metric)}
	seconds := o.seconds / 3

	phase := func(tag string, tr *tracer, tweak func(*lsmssd.Options)) (*store, *plan, *phaseResult, error) {
		st, err := setUp(s, o.seed, o.storeDir(tag), tweak)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("set-up (%s): %w", tag, err)
		}
		p := makePlan(s, o.seed, seconds, st.pre)
		res, err := runPhase(st.db, p, tr, s.timedDrain)
		if err != nil {
			return nil, nil, nil, errors.Join(err, closeAndRemove(st))
		}
		out.countPhase(res)
		return st, p, res, nil
	}
	opsPerSec := func(r *phaseResult) float64 { n, _, _ := r.ops(); return float64(n) / r.wall }

	st, _, plain, err := phase("plain", nil, nil)
	if err != nil {
		return nil, err
	}
	if err := closeAndRemove(st); err != nil {
		return nil, err
	}

	tr := newTracer()
	st, p, res, err := phase("traced", tr, func(opt *lsmssd.Options) { opt.DeviceWrap = tr.wrap })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)
	t0 := time.Now()
	if err := drain(st.db); err != nil {
		return nil, errors.Join(err, st.db.Close())
	}
	drainS := res.drainS
	if !s.timedDrain {
		drainS = time.Since(t0).Seconds()
	}
	shape := layers.Shape{TempDir: o.workdir}
	for _, l := range st.db.Stats().Levels {
		shape.IndexBlocks = max(shape.IndexBlocks, l.Blocks)
	}
	// Every traced run ends with a power cut and a reopen: the reopen time
	// is what replaying the log costs. Only SyncEvery promises that nothing
	// acknowledged is lost, so only there is the content checked.
	models := p.models
	if s.sync != lsmssd.SyncEvery {
		models = [2]*model{}
	}
	attempted, lost, replayS, err := crashCheck(st, models)
	if err != nil {
		return nil, err
	}
	out.count(attempted, lost)
	if err := st.db.Close(); err != nil {
		return nil, err
	}

	st, _, observed, err := phase("observed", nil, func(opt *lsmssd.Options) {
		opt.Metrics = true
		opt.TraceSampleRate = 64
	})
	if err != nil {
		return nil, err
	}
	if err := closeAndRemove(st); err != nil {
		return nil, err
	}

	target := 40 * time.Millisecond
	if o.smoke {
		target = 0
	}
	replays, err := layers.Run(shape, target)
	if err != nil {
		return nil, err
	}

	dev := tr.attribute(res)
	pl := perLayer(p, res, tr, dev, replays)
	pl["compaction.drain_s"] = drainS
	pl["wal.replay_s"] = replayS
	pl["obs.trace_overhead_frac"] = 1 - opsPerSec(observed)/opsPerSec(plain)
	pl["bench.trace_overhead_frac"] = 1 - opsPerSec(res)/opsPerSec(plain)
	// Tails, from the plain phase: they did not repeat within a tenth
	// between seed runs, so they carry no bound (README.md, "Demoted").
	for class, name := range map[int]string{lPut: "tail.put_p99_us", lGet: "tail.get_p99_us", lApply: "tail.apply_p99_us"} {
		v, _ := slicedQuantile(plain.recs, class, 0.99, maxSlices)
		pl[name] = v / 1e3
	}
	pl["tail.put_p50_sched_us"] = 0
	if s.putRate > 0 {
		v, _ := slicedQuantile(plain.recs, lPut, 0.50, maxSlices)
		pl["tail.put_p50_sched_us"] = v / 1e3
	}
	for _, d := range perLayerDefs {
		v, ok := pl[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not produced", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if err := tr.writeTrace(filepath.Join(o.outdir, s.name+".trace.json"), s.name, o.seed, res, selfTimes(res, dev)); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// selfTimes is each traced layer boundary's self time over the window: a
// span's duration minus what its children cover. Client calls are parents
// of the device reads inside them; merges are parents of the rest.
func selfTimes(res *phaseResult, d devTotals) map[string]float64 {
	self := map[string]float64{
		"storage.read.foreground": float64(d.fgReadNs),
		"storage.read.background": float64(d.ns[devRead] - d.fgReadNs),
		"storage.write":           float64(d.ns[devWrite]),
		"storage.sync":            float64(d.ns[devSync]),
		"merge":                   float64(d.mergeEventNs - (d.ns[devRead] - d.fgReadNs) - d.ns[devWrite]),
	}
	var calls [numLat]int64
	for _, rec := range res.recs {
		for _, sp := range rec.spans {
			calls[sp.class] += sp.end - sp.start
		}
	}
	for c, ns := range calls {
		self["db."+latNames[c]] = float64(ns)
	}
	self["db.get"] -= float64(d.fgReadNs) // scans issue few reads next to gets; both are charged here
	return self
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
