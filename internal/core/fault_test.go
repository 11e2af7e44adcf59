package core

import (
	"errors"
	"fmt"
	"testing"

	"lsmssd/internal/block"
	"lsmssd/internal/faultdev"
	"lsmssd/internal/policy"
	"lsmssd/internal/storage"
)

// These tests drive the shared fault-injection device (internal/faultdev)
// through the tree, exercising the error paths of merges, repairs, and
// compactions: injected faults must surface wrapped — never swallowed —
// and never panic.

func TestWriteFaultsSurface(t *testing.T) {
	// Whatever the moment of failure, the tree must return the injected
	// error (wrapped, not swallowed) and never panic.
	for _, failAt := range []int64{1, 5, 20, 100} {
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
			dev.FailWriteAt(failAt)
			tr, err := New(Config{
				Device:        dev,
				Policy:        policy.NewChooseBest(0.25, true),
				BlockCapacity: 4,
				K0:            2,
				Gamma:         4,
				Seed:          1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var sawErr error
			k := block.Key(0)
			for ; k < 2000; k++ {
				if err := putC(tr, k, []byte{1}); err != nil {
					sawErr = err
					break
				}
			}
			if sawErr == nil {
				t.Fatal("injected write fault never surfaced")
			}
			if !errors.Is(sawErr, faultdev.ErrInjected) {
				t.Errorf("error lost provenance: %v", sawErr)
			}
			// The failed merge must lose nothing: every record written before
			// it is still served once a later write publishes a new view (a
			// merge out of L0 takes its window from the memtable before it
			// writes a block).
			tr.Put(k+1, []byte{1})
			for j := block.Key(0); j <= k+1; j++ {
				if _, ok, err := tr.Get(j); err != nil || !ok {
					t.Fatalf("Get(%d) after the failed merge: ok=%v err=%v", j, ok, err)
				}
			}
		})
	}
}

func TestReadFaultsSurface(t *testing.T) {
	for _, failAt := range []int64{1, 10, 50} {
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
			dev.FailReadAt(failAt)
			tr, err := New(Config{
				Device:        dev,
				Policy:        policy.NewFull(false), // Full merges read every block
				BlockCapacity: 4,
				K0:            2,
				Gamma:         4,
				Seed:          1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var sawErr error
			for k := block.Key(0); k < 2000; k++ {
				if err := putC(tr, k, []byte{1}); err != nil {
					sawErr = err
					break
				}
			}
			if sawErr == nil {
				// Reads may also first fail through a lookup.
				_, _, sawErr = tr.Get(1)
			}
			if sawErr == nil {
				t.Fatal("injected read fault never surfaced")
			}
			if !errors.Is(sawErr, faultdev.ErrInjected) {
				t.Errorf("error lost provenance: %v", sawErr)
			}
		})
	}
}

func TestLookupFaultSurfacesFromGet(t *testing.T) {
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{})
	tr, err := New(Config{
		Device:        dev,
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 4,
		K0:            2,
		Gamma:         4,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := block.Key(0); k < 200; k++ {
		if err := putC(tr, k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	dev.FailReadAt(dev.Reads() + 1)
	if _, _, err := tr.Get(5); !errors.Is(err, faultdev.ErrInjected) {
		t.Errorf("Get error = %v, want injected fault", err)
	}
	dev.FailReadAt(dev.Reads() + 1)
	if err := tr.Scan(0, 100, func(block.Key, []byte) bool { return true }); !errors.Is(err, faultdev.ErrInjected) {
		t.Errorf("Scan error = %v, want injected fault", err)
	}
}

// TestCorruptBlockSurfacesThroughTree pins the ErrCorrupt contract at the
// core layer: a checksum-damaged block fails Get/Scan with the sentinel,
// never a silent not-found.
func TestCorruptBlockSurfacesThroughTree(t *testing.T) {
	dev := faultdev.Wrap(storage.NewMemDevice(), faultdev.Options{Seed: 5, TornWriteProb: 1})
	tr, err := New(Config{
		Device:        dev,
		Policy:        policy.NewChooseBest(0.25, true),
		BlockCapacity: 4,
		K0:            2,
		Gamma:         4,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawErr error
	for k := block.Key(0); k < 2000; k++ {
		if err := putC(tr, k, []byte{1}); err != nil {
			sawErr = err
			break
		}
	}
	if sawErr == nil {
		_, _, sawErr = tr.Get(1)
	}
	if !errors.Is(sawErr, storage.ErrCorrupt) {
		t.Errorf("corruption surfaced as %v, want storage.ErrCorrupt", sawErr)
	}
}
