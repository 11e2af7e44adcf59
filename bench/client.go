package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"lsmssd"
)

// Latency classes, one per end-to-end latency metric family.
const (
	lPut = iota
	lGet
	lApply
	lScan
	lDelete
	numLat
)

var latNames = [numLat]string{"put", "get", "apply", "scan", "delete"}

const (
	sloNanos  = 5_000_000 // the latency limit: 5 ms
	markEvery = 256       // calls between two throughput marks
)

// span is one public DB call as the traced run records it; times are
// nanoseconds since the tracer's epoch. sched equals start on a closed loop.
type span struct {
	sched, start, end int64
	class             uint8
}

// recorder collects one client's samples for one phase. Sample slices are
// sized before the clock starts so the timed loop never grows them.
type recorder struct {
	lat    [numLat][]uint32 // nanoseconds, saturating at ~4.29 s
	late   []uint32         // open loop only: generator lateness per op
	spans  []span           // traced runs only
	trace  bool
	marks  []int64 // the clock at every markEvery-th completed call, from the first call's start
	ops    int     // completed public calls
	slow   int     // calls later than sloNanos, failures included
	failed int     // errors and oracle mismatches
	end    int64
}

func newRecorder(ops []op, trace, openLoop bool) *recorder {
	var n [numLat]int
	for _, o := range ops {
		switch o.kind {
		case opPut:
			n[lPut]++
		case opDelete:
			n[lDelete]++
		case opGet:
			n[lGet]++
		case opApply:
			n[lApply]++
		case opScan:
			n[lScan]++
		}
	}
	r := &recorder{trace: trace}
	total := 0
	for c, k := range n {
		r.lat[c] = make([]uint32, 0, k)
		total += k
	}
	if openLoop {
		r.late = make([]uint32, 0, total)
	}
	if trace {
		r.spans = make([]span, 0, total)
	}
	r.marks = make([]int64, 0, total/markEvery+2)
	return r
}

func sat32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

func (r *recorder) add(class int, sched, start, end int64, bad bool) {
	lat := end - sched
	r.lat[class] = append(r.lat[class], sat32(lat))
	if r.ops == 0 {
		r.marks = append(r.marks, start)
	}
	r.ops++
	if r.ops%markEvery == 0 {
		r.marks = append(r.marks, end)
	}
	if bad {
		r.failed++
	}
	if bad || lat > sloNanos {
		r.slow++
	}
	if r.trace {
		r.spans = append(r.spans, span{sched: sched, start: start, end: end, class: uint8(class)})
	}
	r.end = end
}

// client drives the public DB API from one goroutine.
type client struct {
	db    *lsmssd.DB
	rec   *recorder
	epoch time.Time
	batch *lsmssd.WriteBatch
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

// do executes ops[i] and returns the index of the next op. sched < 0 means
// closed loop: latency runs from the call's own start. Values are built
// before the start stamp, so the generator's cost is in ops_s but never in
// a latency.
func (c *client) do(ops []op, i int, sched int64) int {
	o := ops[i]
	switch o.kind {
	case opPut:
		v := mkValue(o.key, o.ver)
		s := c.now()
		err := c.db.Put(o.key, v)
		c.done(lPut, sched, s, err != nil)
	case opDelete:
		s := c.now()
		err := c.db.Delete(o.key)
		c.done(lDelete, sched, s, err != nil)
	case opGet:
		s := c.now()
		v, found, err := c.db.Get(o.key)
		e := c.now()
		bad := err != nil || found != (o.ver != 0) || (found && !checkValue(o.key, o.ver, v))
		c.finish(lGet, sched, s, e, bad)
	case opApply:
		if c.batch == nil {
			c.batch = c.db.NewBatch()
		}
		c.batch.Reset()
		for _, p := range ops[i+1 : i+1+int(o.n)] {
			c.batch.Put(p.key, mkValue(p.key, p.ver))
		}
		s := c.now()
		err := c.db.Apply(c.batch)
		c.done(lApply, sched, s, err != nil)
		return i + 1 + int(o.n)
	case opScan:
		dense := o.ver == 1
		hi := uint64(keyMask)
		if dense {
			hi = o.key + uint64(o.n) - 1
		}
		got, prev, bad := 0, uint64(0), false
		s := c.now()
		err := c.db.Scan(o.key, hi, func(k uint64, v []byte) bool {
			if k < o.key || (got > 0 && k <= prev) || (dense && k != o.key+uint64(got)) || !checkValue(k, 0, v) {
				bad = true
			}
			prev = k
			got++
			return got < int(o.n)
		})
		e := c.now()
		c.finish(lScan, sched, s, e, bad || err != nil || got != int(o.n))
	}
	return i + 1
}

func (c *client) done(class int, sched, start int64, bad bool) {
	c.finish(class, sched, start, c.now(), bad)
}

func (c *client) finish(class int, sched, start, end int64, bad bool) {
	if sched < 0 {
		sched = start
	}
	c.rec.add(class, sched, start, end, bad)
}

// runClosed issues ops back to back: the next request is sent only after
// the previous one completes.
func (c *client) runClosed(ops []op) {
	for i := 0; i < len(ops); {
		i = c.do(ops, i, -1)
	}
}

// runOpen issues op i at epoch+i*interval regardless of how the store is
// doing; a stalled call delays the calls behind it and that wait is
// charged to their latency, which runs from the scheduled time. Lateness is
// the part of the delay the generator itself caused: the gap between when
// an op could have been issued (its due time, or the end of the previous
// call if that was later) and when it actually was.
//
// The wait for the next due time yields instead of sleeping: the runtime
// rounds a sub-millisecond sleep on an idle processor up to a millisecond,
// which would issue calls in bursts of interval-many and report that
// batching as latency. runtime.Gosched hands the processor to any runnable
// goroutine (compaction, the other issuer) and returns at once otherwise.
func (c *client) runOpen(ops []op, interval int64) {
	prevEnd := int64(0)
	for i := 0; i < len(ops); {
		sched := int64(i) * interval
		now := c.now()
		for now < sched {
			if sched-now > int64(2*time.Millisecond) {
				time.Sleep(time.Duration(sched-now) - time.Millisecond)
			} else {
				runtime.Gosched()
			}
			now = c.now()
		}
		c.rec.late = append(c.rec.late, sat32(now-max(sched, prevEnd)))
		i = c.do(ops, i, sched)
		prevEnd = c.rec.end
	}
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// slicedQuantile splits each client's samples (which are in issue order)
// into consecutive slices, takes the q-quantile of every slice across
// clients, and returns the median of those values with the total sample
// count. The host stalls for tens of milliseconds a few times a minute; a
// stall then moves one slice and not the reported number. There are up to
// maxSlices slices, fewer when that would leave a slice without ten
// samples beyond the quantile.
func slicedQuantile(recs []*recorder, class int, q float64, maxSlices int) (float64, int) {
	total := samples(recs, class)
	k := min(max(int(float64(total)*(1-q)/10), 1), maxSlices)
	vals := make([]float64, 0, k)
	for s := 0; s < k; s++ {
		var buf []uint32
		for _, r := range recs {
			l := r.lat[class]
			buf = append(buf, l[len(l)*s/k:len(l)*(s+1)/k]...)
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		vals = append(vals, quantile(buf, q))
	}
	return median(vals), total
}

func samples(recs []*recorder, class int) int {
	n := 0
	for _, r := range recs {
		n += len(r.lat[class])
	}
	return n
}

// robustSeconds estimates how long a closed-loop client took from the
// median of its slices: the calls are cut into equal-count slices, and the
// estimate is the median slice duration times the number of slices.
func robustSeconds(r *recorder, maxSlices int) float64 {
	k := min(max(len(r.marks)-1, 1), maxSlices)
	if len(r.marks) < 2 {
		return 0
	}
	d := make([]float64, k)
	n := len(r.marks) - 1
	for s := 0; s < k; s++ {
		d[s] = float64(r.marks[n*(s+1)/k] - r.marks[n*s/k])
	}
	return median(d) * float64(k) / 1e9
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
