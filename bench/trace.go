package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsmssd"
	"lsmssd/internal/block"
	"lsmssd/internal/storage"
)

// The traced run records, from outside the engine, one span per public DB
// call (client.go), one span per device Read/Write/Sync (timedDev, through
// the Options.DeviceWrap seam), the engine's published merge/flush/stall/
// WAL events, and the Stats at the window's two boundaries. Spans inside
// the engine are a later issue.

const (
	devRead = iota
	devWrite
	devSync
)

var devNames = [...]string{"read", "write", "sync"}

type devSpan struct {
	start, end int64
	shard      uint8
	kind       uint8
}

type tracedEvent struct {
	At    int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Event any    `json:"event"`
}

type tracer struct {
	epoch  time.Time
	active atomic.Bool // inside the measured window

	mu     sync.Mutex
	dev    []devSpan
	events []tracedEvent
	merges []lsmssd.MergeEvent

	queueMax int
	stop     chan struct{}
	done     chan struct{}
	cancel   func()
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// wrap is the Options.DeviceWrap hook.
func (t *tracer) wrap(shard int, dev storage.Device) storage.Device {
	return &timedDev{Device: dev, shard: uint8(shard), t: t}
}

func (t *tracer) record(shard, kind uint8, start int64) {
	if !t.active.Load() {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.dev = append(t.dev, devSpan{start: start, end: end, shard: shard, kind: kind})
	t.mu.Unlock()
}

// beginWindow starts recording device spans and engine events, and samples
// the compaction queue depth every 5 ms for its maximum.
func (t *tracer) beginWindow(db *lsmssd.DB) {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	t.cancel = db.Subscribe(t.sink)
	t.active.Store(true)
	go func() {
		defer close(t.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.queueMax = max(t.queueMax, db.Stats().Compaction.QueueDepth)
			}
		}
	}()
}

func (t *tracer) endWindow() {
	close(t.stop)
	<-t.done
	// Events are delivered asynchronously; give the dispatcher a moment to
	// hand over the last merge before the window closes.
	time.Sleep(20 * time.Millisecond)
	t.active.Store(false)
	t.cancel()
}

func (t *tracer) sink(ev lsmssd.Event) {
	if !t.active.Load() {
		return
	}
	var kind string
	switch e := ev.(type) {
	case lsmssd.MergeEvent:
		kind = "merge"
		t.mu.Lock()
		t.merges = append(t.merges, e)
		t.mu.Unlock()
	case lsmssd.FlushEvent:
		kind = "flush"
	case lsmssd.StallEvent:
		kind = "stall"
	case lsmssd.WALEvent:
		kind = "wal"
	case lsmssd.GrowEvent:
		kind = "grow"
	default:
		return
	}
	at := t.now()
	t.mu.Lock()
	t.events = append(t.events, tracedEvent{At: at, Kind: kind, Event: ev})
	t.mu.Unlock()
}

var _ storage.Syncer = (*timedDev)(nil) // checkpoints sync through the wrapped device

// timedDev times the three calls that reach the medium. Everything else
// (Alloc, Peek, Free, counters) passes through the embedded device.
type timedDev struct {
	storage.Device
	shard uint8
	t     *tracer
}

func (d *timedDev) Read(id storage.BlockID) (*block.Block, error) {
	s := d.t.now()
	b, err := d.Device.Read(id)
	d.t.record(d.shard, devRead, s)
	return b, err
}

func (d *timedDev) Write(id storage.BlockID, b *block.Block) error {
	s := d.t.now()
	err := d.Device.Write(id, b)
	d.t.record(d.shard, devWrite, s)
	return err
}

// Sync keeps the device a storage.Syncer, which checkpoints require.
func (d *timedDev) Sync() error {
	sy, ok := d.Device.(storage.Syncer)
	if !ok {
		return nil
	}
	s := d.t.now()
	err := sy.Sync()
	d.t.record(d.shard, devSync, s)
	return err
}

// devTotals is device time split by who issued it.
type devTotals struct {
	count        [3]int
	ns           [3]int64
	fgReadNs     int64 // reads inside a client's Get or Scan span
	mergeEventNs int64 // Σ MergeEvent.Duration
}

// attribute gives each device span to exactly one parent. Writes and syncs
// are always background work (flush, merge, checkpoint). A read is a child
// of a client call when it lies inside that client's Get or Scan span —
// each client's spans are disjoint and ordered, so that is one binary
// search per client — and background (merge input) otherwise.
func (t *tracer) attribute(res *phaseResult) devTotals {
	var d devTotals
	for _, s := range t.dev {
		d.count[s.kind]++
		d.ns[s.kind] += s.end - s.start
		if s.kind != devRead {
			continue
		}
		for _, rec := range res.recs {
			sp := rec.spans
			i := sort.Search(len(sp), func(i int) bool { return sp[i].start+res.start > s.start }) - 1
			if i >= 0 && (sp[i].class == lGet || sp[i].class == lScan) && s.end <= sp[i].end+res.start {
				d.fgReadNs += s.end - s.start
				break
			}
		}
	}
	for _, m := range t.merges {
		d.mergeEventNs += int64(m.Duration)
	}
	return d
}

const maxSpansWritten = 200_000 // per span list in the trace file; longer lists are strided

// writeTrace writes the trace file. Span rows are arrays to keep the file
// small: [class, client, scheduled, start, end] and [kind, shard, start, end],
// all nanoseconds since the tracer's epoch.
func (t *tracer) writeTrace(path, workload string, seed int64, res *phaseResult, self map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	field := func(name string, v any) {
		b, merr := json.Marshal(v)
		if merr != nil && err == nil {
			err = merr
		}
		fmt.Fprintf(w, "%q: %s,\n", name, b)
	}
	fmt.Fprintln(w, "{")
	field("workload", workload)
	field("seed", seed)
	field("window_ns", [2]int64{res.start, res.end})
	field("call_classes", latNames)
	field("device_kinds", devNames)
	field("stats_before", res.before)
	field("stats_after", res.after)
	field("self_time_ns", self)
	field("events", t.events)
	total := 0
	for _, r := range res.recs {
		total += len(r.spans)
	}
	stride := (total + maxSpansWritten - 1) / maxSpansWritten
	field("call_span_stride", max(stride, 1))
	fmt.Fprint(w, `"call_spans": [`)
	n := 0
	for c, r := range res.recs {
		for i, s := range r.spans {
			if stride > 1 && i%stride != 0 {
				continue
			}
			if n > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.class, c, s.sched+res.start, s.start+res.start, s.end+res.start)
			n++
		}
	}
	fmt.Fprintln(w, "],")
	stride = max((len(t.dev)+maxSpansWritten-1)/maxSpansWritten, 1)
	field("device_span_stride", stride)
	fmt.Fprint(w, `"device_spans": [`)
	for i := 0; i < len(t.dev); i += stride {
		if i > 0 {
			w.WriteByte(',')
		}
		s := t.dev[i]
		fmt.Fprintf(w, "[%d,%d,%d,%d]", s.kind, s.shard, s.start, s.end)
	}
	fmt.Fprintln(w, "]\n}")
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
