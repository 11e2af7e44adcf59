package compaction_test

import (
	"errors"
	"fmt"
	"runtime"
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
	return newTreeWith(t, dev, policy.NewChooseBest(0.25, true))
}

func newTreeWith(t *testing.T, dev storage.Device, p *policy.Policy) *core.Tree {
	t.Helper()
	tr, err := core.New(core.Config{
		Device:        dev,
		Policy:        p,
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

// TestDrainedSchedulerMatchesDriver pins drain-equivalence, the way the
// paper's merge sequence is reproduced through a DB: a scheduler whose
// queue is waited down to zero after every mutation performs exactly the
// merges the inline Driver does, so the device write counter and the
// tree's contents match for every policy under every layout. The
// goroutine also serves the checkpoints requested along the way.
func TestDrainedSchedulerMatchesDriver(t *testing.T) {
	policies := []struct {
		name string
		new  func() *policy.Policy
	}{
		{"Full", func() *policy.Policy { return policy.NewFull(true) }},
		{"Full-P", func() *policy.Policy { return policy.NewFull(false) }},
		{"RR", func() *policy.Policy { return policy.NewRR(0.25, true) }},
		{"ChooseBest", func() *policy.Policy { return policy.NewChooseBest(0.25, true) }},
		{"ChooseBest-P", func() *policy.Policy { return policy.NewChooseBest(0.25, false) }},
		{"ChooseBestPartitioned", func() *policy.Policy { return policy.NewChooseBestPartitioned(0.25, true) }},
		{"TestMixed", func() *policy.Policy { return policy.NewTestMixed(0.25, true) }},
		{"Mixed", func() *policy.Policy { return policy.NewMixed(0.25, true, map[int]float64{2: 0.5}, true) }},
	}
	layouts := []policy.Layout{{Kind: policy.Leveling}, {Kind: policy.Tiering, TierRuns: 3}, {Kind: policy.LazyLeveling, TierRuns: 3}}
	for _, lay := range layouts {
		for _, pc := range policies {
			t.Run(lay.Kind.String()+"/"+pc.name, func(t *testing.T) {
				run := func(viaScheduler bool) (int64, []block.Key) {
					dev := storage.NewMemDevice()
					tr := newTreeWith(t, dev, pc.new().WithLayout(lay))
					apply := compaction.Driver{Tree: tr}.Put
					del := compaction.Driver{Tree: tr}.Delete
					if viaScheduler {
						s := drainedScheduler(t, tr)
						defer s.Stop()
						apply = func(k block.Key, v []byte) error { return s.write(func() error { return tr.Put(k, v) }) }
						del = func(k block.Key) error { return s.write(func() error { return tr.Delete(k) }) }
					}
					for k := block.Key(0); k < 600; k++ {
						var err error
						if k%7 == 6 {
							err = del((k * 13) % 997)
						} else {
							err = apply((k*7919)%997, []byte{byte(k)})
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if err := tr.Validate(); err != nil {
						t.Fatal(err)
					}
					var keys []block.Key
					if err := tr.Scan(0, ^block.Key(0), func(k block.Key, _ []byte) bool {
						keys = append(keys, k)
						return true
					}); err != nil {
						t.Fatal(err)
					}
					return dev.Counters().Writes, keys
				}
				dw, dk := run(false)
				sw, sk := run(true)
				if dw != sw {
					t.Fatalf("Driver wrote %d blocks, the drained scheduler %d; sequences diverged", dw, sw)
				}
				if fmt.Sprint(dk) != fmt.Sprint(sk) {
					t.Fatalf("contents diverged: Driver holds %d keys, the drained scheduler %d", len(dk), len(sk))
				}
			})
		}
	}
}

// drained is a scheduler driven the way the DB drives it — Admit, then
// the mutation and Notify under the writer lock — and waited down to an
// empty queue after each write, with a checkpoint requested every 50.
type drained struct {
	*compaction.Scheduler
	t      *testing.T
	mu     *sync.Mutex
	writes int
}

func drainedScheduler(t *testing.T, tr *core.Tree) *drained {
	t.Helper()
	mu := &sync.Mutex{}
	s, err := compaction.New(compaction.Config{Tree: tr, Mu: mu, MergeMu: new(sync.Mutex), Checkpoint: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	return &drained{Scheduler: s, t: t, mu: mu}
}

func (d *drained) write(mutate func() error) error {
	if err := d.Admit(); err != nil {
		return err
	}
	d.mu.Lock()
	err := mutate()
	if err == nil {
		err = d.Notify()
	}
	if d.writes++; d.writes%50 == 0 {
		d.RequestCheckpoint()
	}
	d.mu.Unlock()
	if err != nil {
		return err
	}
	waitDepth(d.t, d.Scheduler, 0)
	return nil
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

// TestBackgroundDrainsAndStops drives writes through a scheduler without
// waiting between them, waits for it to drain the backlog, and verifies the
// tree reaches the steady state the Driver guarantees after every write.
func TestBackgroundDrainsAndStops(t *testing.T) {
	tr := newTree(t, storage.NewMemDevice())
	var mu sync.Mutex
	s, err := compaction.New(compaction.Config{Tree: tr, Mu: &mu, MergeMu: new(sync.Mutex)})
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
	s, err := compaction.New(compaction.Config{Tree: tr, Mu: &mu, MergeMu: new(sync.Mutex)})
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
	if err := s.WaitIdle(); !errors.Is(err, errInjected) {
		t.Fatalf("WaitIdle after failure = %v, want wrapped errInjected", err)
	}
	mu.Lock()
	err = s.Notify()
	mu.Unlock()
	if !errors.Is(err, errInjected) {
		t.Fatalf("Notify after failure = %v, want wrapped errInjected", err)
	}
}

// TestStopReleasesGatedWriter: a writer parked on the hard stall gate, and
// a caller waiting for the scheduler to go idle, must not deadlock Stop —
// shutdown broadcasts, the writer returns, and the waiter returns an error.
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
	s, err := compaction.New(compaction.Config{Tree: tr, Mu: &mu, MergeMu: new(sync.Mutex)})
	if err != nil {
		t.Fatal(err)
	}
	admitted, idle := make(chan error, 1), make(chan error, 1)
	go func() { admitted <- s.Admit() }()
	go func() { idle <- s.WaitIdle() }()
	select {
	case err := <-admitted:
		t.Fatalf("Admit returned %v before Stop; the gate should have parked it", err)
	case err := <-idle:
		t.Fatalf("WaitIdle returned %v before Stop with merge work queued", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.Stop()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release the gated writer")
	}
	select {
	case err := <-idle:
		if err == nil {
			t.Fatal("WaitIdle reported idle with merge work still queued")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release the idle waiter")
	}
}

// TestDerivedStallGate pins the gate the scheduler derives from its tree
// (newTree: K0 = 2 blocks of B = 4): admission passes below 2·K0 = 4 L0
// blocks, pays one pacing sleep from 4, and blocks from 4·K0 = 8 until
// released.
func TestDerivedStallGate(t *testing.T) {
	admit := func(records int) compaction.Stats {
		t.Helper()
		tr := newTree(t, storage.NewMemDevice())
		for k := 0; k < records; k++ {
			if err := tr.Put(block.Key(k), []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		var mu sync.Mutex
		s, err := compaction.New(compaction.Config{Tree: tr, Mu: &mu, MergeMu: new(sync.Mutex)})
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
		records         int // L0 blocks = ⌈records/4⌉
		slowdowns, stop int64
	}{
		{12, 0, 0}, // 3 blocks
		{13, 1, 0}, // 4 blocks = 2·K0
		{28, 1, 0}, // 7 blocks
		{29, 0, 1}, // 8 blocks = 4·K0
	} {
		st := admit(c.records)
		if st.L0Blocks != (c.records+3)/4 || st.Slowdowns != c.slowdowns || st.Stops != c.stop {
			t.Errorf("%d records: L0Blocks=%d slowdowns=%d stops=%d, want %d/%d",
				c.records, st.L0Blocks, st.Slowdowns, st.Stops, c.slowdowns, c.stop)
		}
	}
	if got := compaction.StopBlocks(2); got != 8 {
		t.Errorf("StopBlocks(2) = %d, want 8", got)
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
		Tree:    newTree(t, storage.NewMemDevice()),
		Mu:      &mu,
		MergeMu: new(sync.Mutex),
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
		MergeMu:    new(sync.Mutex),
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

// TestTickRunsInBothModes: the goroutine ticks, and Stop ends it. Only the
// background case is left; the name is the one the suite has always
// reported it under.
func TestTickRunsInBothModes(t *testing.T) {
	t.Run("background", testTickRuns)
}

func testTickRuns(t *testing.T) {
	var mu sync.Mutex
	ticks := make(chan struct{}, 1)
	s, err := compaction.New(compaction.Config{
		Tree:         newTree(t, storage.NewMemDevice()),
		Mu:           &mu,
		MergeMu:      new(sync.Mutex),
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
}

// waitDepth waits until the scheduler's QueueDepth reads want. It yields
// before it sleeps: a drain after every write must not cost a timer tick
// per write.
func waitDepth(t *testing.T, s *compaction.Scheduler, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; s.Snapshot().QueueDepth != want; i++ {
		if i < 256 {
			runtime.Gosched()
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("QueueDepth stuck at %d, want %d", s.Snapshot().QueueDepth, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
