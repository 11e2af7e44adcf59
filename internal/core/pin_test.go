package core

import (
	"bytes"
	"sync"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/policy"
)

// A pin held across merges that free its blocks keeps reading them: the
// frees stay deferred while the pin is up, and the unpin lets them go.
func TestPinnedViewKeepsBlocksUntilUnpin(t *testing.T) {
	cfg := testConfig(policy.NewChooseBest(0.25, true))
	cfg.BloomBitsPerKey = 10
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	old, fresh := []byte("old"), []byte("fresh")
	for k := block.Key(0); k < n; k++ {
		if err := putC(tr, k, old); err != nil {
			t.Fatal(err)
		}
	}
	p, err := tr.PinView()
	if err != nil {
		t.Fatal(err)
	}
	if tr.DeferredFrees() != 0 {
		t.Fatalf("%d deferred frees before any merge retired the pinned view", tr.DeferredFrees())
	}
	for k := block.Key(0); k < n; k++ {
		if err := putC(tr, k, fresh); err != nil {
			t.Fatal(err)
		}
	}
	if tr.DeferredFrees() == 0 {
		t.Fatal("no deferred frees: the merges freed the pinned view's blocks at once")
	}
	if err := tr.ValidateAccounting(); err != nil {
		t.Fatal(err)
	}
	v := p.View()
	for k := block.Key(0); k < n; k++ {
		got, ok, err := v.Get(k)
		if err != nil || !ok || !bytes.Equal(got, old) {
			t.Fatalf("pinned view Get(%d) = %q, %v, %v; want %q", k, got, ok, err, old)
		}
	}
	p.Unpin()
	if d := tr.DeferredFrees(); d != 0 {
		t.Fatalf("%d deferred frees after the last unpin", d)
	}
	if got := tr.LiveViews(); got != 1 {
		t.Fatalf("%d live views after the unpin, want the current one", got)
	}
	if err := tr.ValidateAccounting(); err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < n; k++ {
		if got, ok, err := tr.Get(k); err != nil || !ok || !bytes.Equal(got, fresh) {
			t.Fatalf("Get(%d) = %q, %v, %v; want %q", k, got, ok, err, fresh)
		}
	}
}

// PinView takes the lock-free path only while no write has changed L0
// since the current view captured it; a write makes the next pin publish.
func TestPinViewPublishesAfterWrite(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.25, true)))
	if err != nil {
		t.Fatal(err)
	}
	pin := func() *View {
		t.Helper()
		p, err := tr.PinView()
		if err != nil {
			t.Fatal(err)
		}
		defer p.Unpin()
		return p.View()
	}
	a := pin()
	if b := pin(); b != a {
		t.Fatal("a pin with no write between published a new view")
	}
	tr.Put(1, []byte("x"))
	c := pin()
	if c == a {
		t.Fatal("a pin after a write reused the view from before it")
	}
	if _, ok, _ := c.Get(1); !ok {
		t.Fatal("the view pinned after a write misses it")
	}
	tr.MarkClosed()
	if _, err := tr.PinView(); err != ErrClosed {
		t.Fatalf("PinView on a closed tree: %v, want ErrClosed", err)
	}
}

// Readers pinning and unpinning while a writer's merges retire view after
// view leave no view live and no free deferred once they stop.
func TestConcurrentPinsDrain(t *testing.T) {
	tr, err := New(testConfig(policy.NewChooseBest(0.25, true)))
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for k := block.Key(0); k < n; k++ {
		if err := putC(tr, k, []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := block.Key((i*7 + r) % n)
				if _, ok, err := tr.Get(k); err != nil || !ok {
					t.Errorf("Get(%d) = %v, %v", k, ok, err)
					return
				}
			}
		}(r)
	}
	for round := byte(1); round <= 5; round++ {
		for k := block.Key(0); k < n; k++ {
			if err := putC(tr, k, []byte{round}); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if d, l := tr.DeferredFrees(), tr.LiveViews(); d != 0 || l != 1 {
		t.Fatalf("after the readers stopped: %d deferred frees, %d live views; want 0 and 1", d, l)
	}
	if err := tr.ValidateAccounting(); err != nil {
		t.Fatal(err)
	}
}
