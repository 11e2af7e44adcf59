package compaction_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lsmssd/internal/block"
	"lsmssd/internal/compaction"
	"lsmssd/internal/core"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

func newTree(t *testing.T, dev storage.Device) *core.Tree {
	t.Helper()
	tr, err := core.New(core.Config{
		Device:        dev,
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 4,
		K0:            2,
		Gamma:         4,
		Epsilon:       0.2,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSyncSchedulerMatchesDriver pins the refactor's core promise: a Sync
// scheduler's Put/Notify sequence produces a device write counter
// byte-identical to the synchronous Driver for the same inputs. Its
// goroutine serves the checkpoints requested along the way and never takes
// a merge step.
func TestSyncSchedulerMatchesDriver(t *testing.T) {
	run := func(viaScheduler bool) int64 {
		dev := storage.NewMemDevice()
		tr := newTree(t, dev)
		if viaScheduler {
			var mu sync.Mutex
			ckpts := make(chan struct{}, 1)
			s, err := compaction.New(compaction.Config{
				Tree: tr, Mu: &mu, Mode: compaction.Sync,
				Checkpoint: func() error {
					select {
					case ckpts <- struct{}{}:
					default:
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			for k := block.Key(0); k < 400; k++ {
				if err := s.Admit(); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				err := tr.Put((k*7919)%997, []byte{byte(k)})
				if err == nil {
					err = s.Notify()
				}
				if err == nil && s.Pending() {
					err = fmt.Errorf("work pending after a Sync Notify at key %d", k)
				}
				if k%50 == 0 {
					s.RequestCheckpoint()
				}
				mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			<-ckpts
			waitDepth(t, s, 0)
			if st := s.Snapshot(); st.Steps != 0 {
				t.Fatalf("the Sync scheduler's goroutine took %d merge steps", st.Steps)
			}
		} else {
			drv := compaction.Driver{Tree: tr}
			for k := block.Key(0); k < 400; k++ {
				if err := drv.Put((k*7919)%997, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dev.Counters().Writes
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("Driver wrote %d blocks, Sync scheduler wrote %d; sequences diverged", a, b)
	}
}

// TestDriverLeavesNoBacklog: the Driver's contract is synchronous
// semantics — after any mutation returns, the cascade is fully drained.
func TestDriverLeavesNoBacklog(t *testing.T) {
	tr := newTree(t, storage.NewMemDevice())
	drv := compaction.Driver{Tree: tr}
	for k := block.Key(0); k < 300; k++ {
		if err := drv.Put(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
		if tr.CompactionBacklog() > 0 {
			t.Fatalf("backlog after Driver.Put(%d): the Driver must drain inline", k)
		}
	}
	if err := drv.Delete(7); err != nil {
		t.Fatal(err)
	}
	if tr.CompactionBacklog() > 0 {
		t.Fatal("backlog after Driver.Delete")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundDrainsAndStops drives writes through a Background
// scheduler, waits for it to drain the backlog, and verifies the tree
// reaches the same steady state the sync engine guarantees.
func TestBackgroundDrainsAndStops(t *testing.T) {
	tr := newTree(t, storage.NewMemDevice())
	var mu sync.Mutex
	s, err := compaction.New(compaction.Config{
		Tree: tr, Mu: &mu, Mode: compaction.Background,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 500; k++ {
		if err := s.Admit(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		err := tr.Put(k, []byte{byte(k)})
		if err == nil {
			err = s.Notify()
		}
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		pending := tr.CompactionBacklog() > 0
		mu.Unlock()
		if !pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background scheduler did not drain the backlog")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	if st := s.Snapshot(); st.Steps == 0 {
		t.Fatal("background scheduler reported zero cascade steps after draining 500 records")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 500; k++ {
		if _, ok, err := tr.Get(k); err != nil || !ok {
			t.Fatalf("Get(%d) after drain: ok=%v err=%v", k, ok, err)
		}
	}
}

// faultDevice fails every write once armed, so a background merge step
// fails deterministically.
type faultDevice struct {
	*storage.MemDevice
	mu    sync.Mutex
	armed bool
}

var errInjected = errors.New("injected fault")

func (d *faultDevice) arm() {
	d.mu.Lock()
	d.armed = true
	d.mu.Unlock()
}

func (d *faultDevice) Write(id storage.BlockID, b *block.Block) error {
	d.mu.Lock()
	armed := d.armed
	d.mu.Unlock()
	if armed {
		return fmt.Errorf("write %v: %w", id, errInjected)
	}
	return d.MemDevice.Write(id, b)
}

// TestBackgroundErrorParksAndSurfaces: a failed merge step must park its
// error and surface it on every subsequent Admit and Notify — never
// silently vanish with the goroutine.
func TestBackgroundErrorParksAndSurfaces(t *testing.T) {
	dev := &faultDevice{MemDevice: storage.NewMemDevice()}
	tr := newTree(t, dev)
	var mu sync.Mutex
	s, err := compaction.New(compaction.Config{
		Tree: tr, Mu: &mu, Mode: compaction.Background,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	dev.arm()
	for k := block.Key(0); k < 200; k++ {
		if err := s.Admit(); err != nil {
			break // parked error surfaced on admission — the contract
		}
		mu.Lock()
		err := tr.Put(k, []byte{byte(k)})
		if err == nil {
			s.Notify() //nolint — parked error checked below
		}
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background merge failure never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(s.Err(), errInjected) {
		t.Fatalf("parked error = %v, want wrapped errInjected", s.Err())
	}
	if err := s.Admit(); !errors.Is(err, errInjected) {
		t.Fatalf("Admit after failure = %v, want wrapped errInjected", err)
	}
	mu.Lock()
	err = s.Notify()
	mu.Unlock()
	if !errors.Is(err, errInjected) {
		t.Fatalf("Notify after failure = %v, want wrapped errInjected", err)
	}
}

// TestStopReleasesGatedWriter: a writer parked on the hard stall gate must
// not deadlock Stop — shutdown broadcasts and the writer returns.
func TestStopReleasesGatedWriter(t *testing.T) {
	tr := newTree(t, storage.NewMemDevice())
	// Fill L0 to 16 blocks, past the stop threshold 4·K0 = 8, before
	// building the scheduler: New seeds the gate from the tree, and with no
	// Notify ever sent, nothing drains it — the gate stays shut until Stop.
	for k := block.Key(0); k < 64; k++ {
		if err := tr.Put(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	s, err := compaction.New(compaction.Config{
		Tree: tr, Mu: &mu, Mode: compaction.Background,
	})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- s.Admit() }()
	select {
	case err := <-admitted:
		t.Fatalf("Admit returned %v before Stop; the gate should have parked it", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.Stop()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release the gated writer")
	}
}

// TestDerivedStallGate pins the gate the scheduler derives from its tree
// (newTree: K0 = 2 blocks of B = 4): admission passes below 2·K0 = 4 L0
// blocks, pays one pacing sleep from 4, and blocks from 4·K0 = 8 until
// released; a Sync scheduler never gates, however full L0 is.
func TestDerivedStallGate(t *testing.T) {
	admit := func(mode compaction.Mode, records int) compaction.Stats {
		t.Helper()
		tr := newTree(t, storage.NewMemDevice())
		for k := 0; k < records; k++ {
			if err := tr.Put(block.Key(k), []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		var mu sync.Mutex
		s, err := compaction.New(compaction.Config{Tree: tr, Mu: &mu, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		admitted := make(chan error, 1)
		go func() { admitted <- s.Admit() }()
		select {
		case err := <-admitted:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(50 * time.Millisecond):
			s.Stop() // parked on the gate: Stop releases it
			<-admitted
		}
		s.Stop()
		return s.Snapshot()
	}
	for _, c := range []struct {
		mode            compaction.Mode
		records         int // L0 blocks = ⌈records/4⌉
		slowdowns, stop int64
	}{
		{compaction.Background, 12, 0, 0}, // 3 blocks
		{compaction.Background, 13, 1, 0}, // 4 blocks = 2·K0
		{compaction.Background, 28, 1, 0}, // 7 blocks
		{compaction.Background, 29, 0, 1}, // 8 blocks = 4·K0
		{compaction.Sync, 200, 0, 0},      // 50 blocks, no gate
	} {
		st := admit(c.mode, c.records)
		if st.L0Blocks != (c.records+3)/4 || st.Slowdowns != c.slowdowns || st.Stops != c.stop {
			t.Errorf("%s at %d records: L0Blocks=%d slowdowns=%d stops=%d, want %d/%d",
				c.mode, c.records, st.L0Blocks, st.Slowdowns, st.Stops, c.slowdowns, c.stop)
		}
	}
	if got := compaction.StopBlocks(compaction.Background, 2); got != 8 {
		t.Errorf("StopBlocks(Background, 2) = %d, want 8", got)
	}
	if got := compaction.StopBlocks(compaction.Sync, 2); got != 0 {
		t.Errorf("StopBlocks(Sync, 2) = %d, want 0", got)
	}
}

// TestCheckpointRequestsCoalesce: the goroutine runs Config.Checkpoint off
// the writer lock, once for any number of requests made before a run
// starts and once more for requests made while one is running; QueueDepth
// counts the requested-or-running checkpoint so a drain waits for it.
func TestCheckpointRequestsCoalesce(t *testing.T) {
	var mu sync.Mutex
	entered, release := make(chan struct{}), make(chan struct{})
	runs := 0
	s, err := compaction.New(compaction.Config{
		Tree: newTree(t, storage.NewMemDevice()),
		Mu:   &mu,
		Mode: compaction.Background,
		Checkpoint: func() error {
			if !mu.TryLock() {
				t.Error("Checkpoint called with the writer lock held")
			} else {
				mu.Unlock()
			}
			runs++ // only the scheduler goroutine touches it until Stop
			entered <- struct{}{}
			<-release
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	s.RequestCheckpoint()
	s.RequestCheckpoint()
	<-entered // first run, serving both requests
	if qd := s.Snapshot().QueueDepth; qd != 1 {
		t.Fatalf("QueueDepth = %d with a checkpoint running, want 1", qd)
	}
	s.RequestCheckpoint() // arrives mid-run: must not be lost, must not double
	s.RequestCheckpoint()
	release <- struct{}{}
	<-entered // the one extra run
	if qd := s.Snapshot().QueueDepth; qd != 1 {
		t.Fatalf("QueueDepth = %d with the follow-up checkpoint running, want 1", qd)
	}
	release <- struct{}{}
	waitDepth(t, s, 0)
	s.Stop()
	if runs != 2 {
		t.Fatalf("Checkpoint ran %d times for 2+2 requests, want 2", runs)
	}
}

// TestCheckpointErrorParks: a failed checkpoint is a failed background
// step — parked, returned by the next Admit, the goroutine gone.
func TestCheckpointErrorParks(t *testing.T) {
	var mu sync.Mutex
	boom := errors.New("checkpoint failed")
	s, err := compaction.New(compaction.Config{
		Tree:       newTree(t, storage.NewMemDevice()),
		Mu:         &mu,
		Mode:       compaction.Background,
		Checkpoint: func() error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.RequestCheckpoint()
	deadline := time.Now().Add(10 * time.Second)
	for s.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the checkpoint failure never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Admit(); !errors.Is(err, boom) {
		t.Fatalf("Admit after a failed checkpoint = %v, want the parked error", err)
	}
}

// TestTickRunsInBothModes: the goroutine ticks in either mode, and Stop
// ends it.
func TestTickRunsInBothModes(t *testing.T) {
	for _, mode := range []compaction.Mode{compaction.Sync, compaction.Background} {
		t.Run(mode.String(), func(t *testing.T) {
			var mu sync.Mutex
			ticks := make(chan struct{}, 1)
			s, err := compaction.New(compaction.Config{
				Tree:         newTree(t, storage.NewMemDevice()),
				Mu:           &mu,
				Mode:         mode,
				TickInterval: time.Millisecond,
				Tick: func() error {
					select {
					case ticks <- struct{}{}:
					default:
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-ticks:
			case <-time.After(10 * time.Second):
				t.Fatal("no tick within 10s")
			}
			s.Stop() // returns only once the goroutine has exited
		})
	}
}

func waitDepth(t *testing.T, s *compaction.Scheduler, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Snapshot().QueueDepth != want {
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth stuck at %d, want %d", s.Snapshot().QueueDepth, want)
		}
		time.Sleep(time.Millisecond)
	}
}
