package health

import (
	"errors"
	"testing"
)

var errCause = errors.New("cause")

// TestTransitionTable drives every (from, to) pair through the tracker
// and checks acceptance against the documented table.
func TestTransitionTable(t *testing.T) {
	states := []State{Healthy, Degraded, ReadOnly, Failed}
	// want[from][to]
	want := map[State]map[State]bool{
		Healthy:  {Healthy: false, Degraded: true, ReadOnly: true, Failed: true},
		Degraded: {Healthy: true, Degraded: false, ReadOnly: true, Failed: true},
		ReadOnly: {Healthy: false, Degraded: false, ReadOnly: false, Failed: true},
		Failed:   {Healthy: false, Degraded: false, ReadOnly: false, Failed: false},
	}
	// reach puts a fresh tracker into state s.
	reach := func(s State) *Tracker {
		tr := NewTracker(nil)
		switch s {
		case Degraded:
			tr.Degrade("seed", errCause)
		case ReadOnly:
			tr.DemoteReadOnly("seed", errCause)
		case Failed:
			tr.Fail("seed", errCause)
		}
		if tr.State() != s {
			t.Fatalf("setup: could not reach %v", s)
		}
		return tr
	}
	apply := func(tr *Tracker, to State) bool {
		switch to {
		case Healthy:
			return tr.Promote("clean-scrub")
		case Degraded:
			return tr.Degrade("corrupt", errCause)
		case ReadOnly:
			return tr.DemoteReadOnly("enospc", errCause)
		case Failed:
			return tr.Fail("read-failure", errCause)
		}
		panic("unreachable")
	}
	for _, from := range states {
		for _, to := range states {
			tr := reach(from)
			got := apply(tr, to)
			if got != want[from][to] {
				t.Errorf("%v -> %v: accepted=%v, want %v", from, to, got, want[from][to])
			}
			if got && tr.State() != to {
				t.Errorf("%v -> %v accepted but state is %v", from, to, tr.State())
			}
			if !got && tr.State() != from {
				t.Errorf("%v -> %v rejected but state moved to %v", from, to, tr.State())
			}
		}
	}
}

func TestCauseAndHistory(t *testing.T) {
	var seen []Transition
	tr := NewTracker(func(t Transition) { seen = append(seen, t) })
	tr.Degrade("corrupt-block", errCause)
	tr.DemoteReadOnly("enospc", errCause)
	if cause, err := tr.Cause(); cause != "enospc" || !errors.Is(err, errCause) {
		t.Fatalf("Cause() = %q, %v", cause, err)
	}
	if len(seen) != 2 {
		t.Fatalf("%d callbacks, want one per transition", len(seen))
	}
	if seen[0].From != Healthy || seen[0].To != Degraded || seen[0].Cause != "corrupt-block" {
		t.Fatalf("first transition %+v", seen[0])
	}
	if seen[1].From != Degraded || seen[1].To != ReadOnly {
		t.Fatalf("second transition %+v", seen[1])
	}
}

// TestRejectedTransitionsEmitNothing: idempotent demotions must not
// re-fire the callback (events are one per accepted change).
func TestRejectedTransitionsEmitNothing(t *testing.T) {
	calls := 0
	tr := NewTracker(func(Transition) { calls++ })
	tr.Degrade("a", errCause)
	tr.Degrade("b", errCause) // rejected: already Degraded
	tr.Promote("clean")
	tr.Promote("clean") // rejected: already Healthy
	if calls != 2 {
		t.Fatalf("callbacks = %d, want 2", calls)
	}
	if cause, _ := tr.Cause(); cause != "clean" {
		t.Fatalf("cause = %q, want clean", cause)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Healthy: "healthy", Degraded: "degraded", ReadOnly: "read-only", Failed: "failed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
