package retry

import (
	"errors"
	"testing"
	"time"
)

// fake clock/sleeper: sleeps advance the clock, nothing blocks.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
	reads  int // Now calls
}

func (c *fakeClock) Now() time.Time { c.reads++; return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func newTestRetryer(p Policy, c *fakeClock) *Retryer {
	p.Sleep = c.Sleep
	p.Now = c.Now
	return New(p)
}

var errTransient = errors.New("transient")
var errPermanent = errors.New("permanent")

func TestSucceedsAfterRetries(t *testing.T) {
	c := &fakeClock{}
	r := newTestRetryer(Policy{MaxAttempts: 5}, c)
	calls := 0
	err := r.Do(func() error {
		calls++
		if calls < 3 {
			return errTransient
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(c.sleeps) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(c.sleeps))
	}
	st := r.Snapshot()
	if st.Attempts != 3 || st.Retries != 2 || st.Exhausted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A first try that succeeds — every read of a healthy device — reads no
// clock; the first failure starts the deadline.
func TestFirstTrySuccessReadsNoClock(t *testing.T) {
	c := &fakeClock{}
	r := newTestRetryer(Policy{MaxAttempts: 3}, c)
	for i := 0; i < 10; i++ {
		if err := r.Do(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.reads != 0 {
		t.Fatalf("%d clock reads for 10 first-try successes, want 0", c.reads)
	}
	if st := r.Snapshot(); st.Attempts != 10 {
		t.Fatalf("attempts = %d, want 10", st.Attempts)
	}
	failed := false
	if err := r.Do(func() error {
		if !failed {
			failed = true
			return errTransient
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.reads == 0 {
		t.Fatal("a retried failure read no clock: the deadline has no start")
	}
}

func TestAttemptCap(t *testing.T) {
	c := &fakeClock{}
	r := newTestRetryer(Policy{MaxAttempts: 4}, c)
	calls := 0
	err := r.Do(func() error { calls++; return errTransient })
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	if !errors.Is(err, errTransient) {
		t.Fatalf("exhausted error must wrap the cause, got %v", err)
	}
	if r.Snapshot().Exhausted != 1 {
		t.Fatalf("stats = %+v", r.Snapshot())
	}
}

func TestDeadlineCap(t *testing.T) {
	c := &fakeClock{}
	r := newTestRetryer(Policy{
		MaxAttempts: 1000,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Deadline:    35 * time.Millisecond,
	}, c)
	calls := 0
	err := r.Do(func() error { calls++; return errTransient })
	if !errors.Is(err, errTransient) {
		t.Fatalf("deadline error must wrap the cause, got %v", err)
	}
	// Deadline 35ms with ~10ms sleeps: the loop must stop after a
	// handful of attempts, nowhere near the 1000-attempt cap.
	if calls < 2 || calls > 6 {
		t.Fatalf("calls = %d, want a deadline-bounded handful", calls)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	c := &fakeClock{}
	r := newTestRetryer(Policy{
		MaxAttempts: 5,
		Retryable:   func(err error) bool { return !errors.Is(err, errPermanent) },
	}, c)
	calls := 0
	err := r.Do(func() error { calls++; return errPermanent })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	// Permanent errors come back unwrapped so sentinel checks upstream
	// see exactly what the operation returned.
	if err != errPermanent {
		t.Fatalf("err = %v, want the permanent error itself", err)
	}
	if st := r.Snapshot(); st.Exhausted != 0 {
		t.Fatalf("permanent errors must not count as exhaustion: %+v", st)
	}
}

func TestBackoffBoundedAndJittered(t *testing.T) {
	c := &fakeClock{}
	r := newTestRetryer(Policy{
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Deadline:    time.Hour,
		Seed:        7,
	}, c)
	if err := r.Do(func() error { return errTransient }); err == nil {
		t.Fatal("want exhaustion")
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond,
		4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	if len(c.sleeps) != len(want) {
		t.Fatalf("sleeps = %d, want %d", len(c.sleeps), len(want))
	}
	for i, d := range c.sleeps {
		// Equal jitter: each sleep lies in [delay/2, delay].
		if d < want[i]/2 || d > want[i] {
			t.Fatalf("sleep %d = %v, want within [%v, %v]", i, d, want[i]/2, want[i])
		}
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		c := &fakeClock{}
		r := newTestRetryer(Policy{MaxAttempts: 6, Deadline: time.Hour, Seed: seed}, c)
		if err := r.Do(func() error { return errTransient }); err == nil {
			t.Fatal("want exhaustion")
		}
		return c.sleeps
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
}
