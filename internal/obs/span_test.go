package obs

import (
	"math/rand"
	"testing"
	"time"
)

// TestSpanSumEqualsTotal is the core span property: for any sequence of
// phase transitions and shifts, the finished event's phase durations sum
// to its total exactly.
func TestSpanSumEqualsTotal(t *testing.T) {
	tr := NewTracer(nil, 2, 0, 1) // slow threshold 1ns: every op is captured
	rng := rand.New(rand.NewSource(42))
	const spans = 64
	for i := 0; i < spans; i++ {
		sp := tr.Start(OpPut, i%2)
		if sp == nil {
			t.Fatal("tracer with slow threshold must trace every op")
		}
		steps := rng.Intn(12)
		for j := 0; j < steps; j++ {
			sp.To(Phase(rng.Intn(int(NumPhases))))
			if rng.Intn(3) == 0 {
				busyWork(rng.Intn(2000))
			}
		}
		sp.Finish()
	}
	evs := tr.SlowOps()
	if len(evs) != spans {
		t.Fatalf("captured %d spans, want %d", len(evs), spans)
	}
	for _, ev := range evs {
		if ev.PhaseSum() != ev.Total {
			t.Errorf("op %s: phase sum %v != total %v (phases %v)", ev.Op, ev.PhaseSum(), ev.Total, ev.Phases)
		}
		if !ev.Slow {
			t.Errorf("ring event not marked slow")
		}
	}
}

//go:noinline
func busyWork(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i
	}
	return x
}

// TestTracerDisabledZeroAlloc pins the acceptance criterion: with
// tracing unconfigured, starting (and not getting) a span allocates
// nothing — the whole cost is two atomic loads.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	tr := NewTracer(nil, 4, 0, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		if sp := tr.Start(OpPut, 1); sp != nil {
			t.Fatal("disabled tracer returned a span")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Start allocates %.1f per op, want 0", allocs)
	}
	var nilTr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		if sp := nilTr.Start(OpGet, 0); sp != nil {
			t.Fatal("nil tracer returned a span")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer Start allocates %.1f per op, want 0", allocs)
	}
}

// TestTracerSampling checks the 1-in-N sampler: with rate N and no slow
// threshold, exactly one op in N yields a span.
func TestTracerSampling(t *testing.T) {
	tr := NewTracer(nil, 1, 4, 0)
	got := 0
	for i := 0; i < 100; i++ {
		if sp := tr.Start(OpGet, 0); sp != nil {
			got++
			sp.Finish()
		}
	}
	if got != 25 {
		t.Fatalf("rate-4 sampler traced %d of 100 ops, want 25", got)
	}
}

// TestTracerSampledEventsPublished checks bus routing: sampled spans are
// published, non-sampled fully-traced spans (slow-threshold mode) are
// not unless slow.
func TestTracerSampledEventsPublished(t *testing.T) {
	bus := NewBus(1024)
	defer bus.Close()
	var events []SpanEvent
	cancel := bus.Subscribe(SinkFunc(func(ev Event) {
		if se, ok := ev.(SpanEvent); ok {
			events = append(events, se)
		}
	}))
	defer cancel()

	tr := NewTracer(bus, 1, 2, time.Hour) // every op traced, 1-in-2 sampled, nothing slow
	for i := 0; i < 10; i++ {
		sp := tr.Start(OpPut, 0)
		if sp == nil {
			t.Fatal("slow-threshold tracer must trace every op")
		}
		sp.Finish()
	}
	bus.Flush()
	if len(events) != 5 {
		t.Fatalf("published %d span events, want 5 (sampled half)", len(events))
	}
	for _, ev := range events {
		if !ev.Sampled || ev.Slow {
			t.Errorf("published event flags: sampled=%v slow=%v, want sampled, not slow", ev.Sampled, ev.Slow)
		}
	}
}

// TestSlowRingBounded overflows the slow ring and checks capacity and
// newest-first ordering.
func TestSlowRingBounded(t *testing.T) {
	tr := NewTracer(nil, 1, 0, 1)
	total := slowRingCap + 17
	for i := 0; i < total; i++ {
		sp := tr.Start(Op(i%int(NumOps)), 0)
		sp.Finish()
	}
	evs := tr.SlowOps()
	if len(evs) != slowRingCap {
		t.Fatalf("ring holds %d, want %d", len(evs), slowRingCap)
	}
	// Newest first: the last op started latest.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start.After(evs[i-1].Start) {
			t.Fatalf("ring not newest-first at %d", i)
		}
	}
}

// TestSpanNilSafe: a nil span (tracing off) accepts the full method set.
func TestSpanNilSafe(t *testing.T) {
	var sp *Span
	sp.To(PhaseMemtable)
	sp.Finish()
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.SlowOps() != nil {
		t.Fatal("nil tracer returned slow ops")
	}
	tr.ResetPhases()
}

// TestTracerPhaseSnapshot checks that finished spans feed the per-shard
// phase histograms the flight recorder diffs.
func TestTracerPhaseSnapshot(t *testing.T) {
	tr := NewTracer(nil, 2, 0, 1)
	sp := tr.Start(OpPut, 1)
	sp.To(PhaseMemtable)
	busyWork(5000)
	sp.Finish()
	snap := tr.PhaseSnapshot(1)
	if snap[PhaseMemtable].Count != 1 {
		t.Fatalf("shard 1 memtable phase count = %d, want 1", snap[PhaseMemtable].Count)
	}
	if empty := tr.PhaseSnapshot(0); empty[PhaseMemtable].Count != 0 {
		t.Fatal("shard 0 saw phantom observations")
	}
	tr.ResetPhases()
	if snap := tr.PhaseSnapshot(1); snap[PhaseMemtable].Count != 0 {
		t.Fatal("ResetPhases left observations behind")
	}
}
