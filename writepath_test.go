package lsmssd_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"lsmssd"
	"lsmssd/internal/wal"
)

// TestSingleWritePathEquivalence drives one op sequence through every
// entrance of the shard write path — (a) Put/Delete calls, (b) one
// WriteBatch, (c) WAL replay of (a) after a Crash — and requires them to
// be indistinguishable: identical Get and Scan results, identical request
// counters between (a) and (b), and a Validate-clean recovered store whose
// replay covered exactly the ops logged since the last checkpoint.
func TestSingleWritePathEquivalence(t *testing.T) {
	type op struct {
		key   uint64
		value []byte // nil = delete
	}
	rng := rand.New(rand.NewSource(14))
	const keys = 300
	ops := make([]op, 900)
	model := map[uint64]string{}
	for i := range ops {
		k := uint64(rng.Intn(keys))
		if rng.Intn(4) == 0 {
			ops[i] = op{key: k}
			delete(model, k)
		} else {
			v := fmt.Sprintf("v%d-%d", k, i)
			ops[i] = op{key: k, value: []byte(v)}
			model[k] = v
		}
	}
	const checkpointAt = 500 // ops[checkpointAt:] are what a crash must replay

	// contents reads the store back through Get (every key) and Scan.
	contents := func(t *testing.T, db *lsmssd.DB) (gets, scan map[uint64]string) {
		t.Helper()
		gets, scan = map[uint64]string{}, map[uint64]string{}
		for k := uint64(0); k < keys; k++ {
			v, ok, err := db.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				gets[k] = string(v)
			}
		}
		last, first := uint64(0), true
		err := db.Scan(0, keys, func(k uint64, v []byte) bool {
			if !first && k <= last {
				t.Errorf("scan out of order: %d after %d", k, last)
			}
			last, first = k, false
			scan[k] = string(v)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return gets, scan
	}
	same := func(t *testing.T, what string, got, want map[uint64]string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d keys, want %d", what, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: key %d = %q, want %q", what, k, got[k], w)
			}
		}
	}
	type counters struct{ Requests, Inserts, Deletes, RequestBytes int64 }
	requestCounters := func(db *lsmssd.DB) counters {
		st := db.Stats()
		return counters{st.Requests, st.Inserts, st.Deletes, st.RequestBytes}
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			open := func(name string) (*lsmssd.DB, lsmssd.Options) {
				o := walOpts(filepath.Join(t.TempDir(), name), lsmssd.SyncEvery)
				o.WAL.SegmentBytes = 0 // default 4 MiB: no rotation, so no checkpoint but the explicit one
				o.Shards = shards
				o.Paranoid = true
				db, err := lsmssd.Open(o)
				if err != nil {
					t.Fatal(err)
				}
				return db, o
			}

			// (a) one call per op, with a checkpoint part-way.
			a, aOpts := open("a.blk")
			for i, o := range ops {
				if i == checkpointAt {
					if err := a.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if o.value == nil {
					err = a.Delete(o.key)
				} else {
					err = a.Put(o.key, o.value)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			aGets, aScan := contents(t, a)
			same(t, "calls: get", aGets, model)
			same(t, "calls: scan", aScan, model)
			aCounters := requestCounters(a)

			// (b) the same ops as one WriteBatch.
			b, _ := open("b.blk")
			defer b.Close()
			batch := b.NewBatch()
			for _, o := range ops {
				if o.value == nil {
					batch.Delete(o.key)
				} else {
					batch.Put(o.key, o.value)
				}
			}
			if err := b.Apply(batch); err != nil {
				t.Fatal(err)
			}
			bGets, bScan := contents(t, b)
			same(t, "batch: get", bGets, aGets)
			same(t, "batch: scan", bScan, aScan)
			if got := requestCounters(b); got != aCounters {
				t.Errorf("batch request counters %+v, calls %+v", got, aCounters)
			}
			if err := b.Validate(); err != nil {
				t.Errorf("batch store: %v", err)
			}

			// (c) power-cut (a) and let Open replay the log through the
			// same path.
			if err := a.Crash(); err != nil {
				t.Fatal(err)
			}
			c, err := lsmssd.Open(aOpts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Validate(); err != nil {
				t.Errorf("recovered store: %v", err)
			}
			if got, want := c.Stats().WAL.Recovery.Ops, len(ops)-checkpointAt; got != want {
				t.Errorf("replay applied %d ops, want the %d logged since the checkpoint", got, want)
			}
			cGets, cScan := contents(t, c)
			same(t, "replay: get", cGets, aGets)
			same(t, "replay: scan", cScan, aScan)
		})
	}
}

// TestRefusedWALAppendLeavesTreeUntouched pins DB.commit's log-then-apply
// order. A batch one op over the WAL's per-frame cap is refused by
// wal.Log.Write with ErrTooLarge before anything is written, so the write
// must fail without touching the tree: no key of the batch is visible to
// Get or an iterator, the shard stays healthy and keeps logging, and a
// close and reopen brings none of the keys back.
func TestRefusedWALAppendLeavesTreeUntouched(t *testing.T) {
	const (
		maxFrameOps = 1 << 20 // the wal package's per-frame op cap
		keys        = 256     // the batch cycles over keys [0, keys)
		other       = keys    // a key written outside the batch
	)
	o := walOpts(filepath.Join(t.TempDir(), "db.blk"), lsmssd.SyncEvery)
	o.Shards = 1
	db, err := lsmssd.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if db != nil {
			db.Close()
		}
	}()

	batch := db.NewBatch()
	val := []byte("refused")
	for i := 0; i <= maxFrameOps; i++ {
		batch.Put(uint64(i%keys), val)
	}
	if err := db.Apply(batch); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("Apply of %d ops: err = %v, want wal.ErrTooLarge", batch.Len(), err)
	}
	batch = nil

	// untouched checks that only the key written outside the batch exists.
	untouched := func(when string) {
		t.Helper()
		for k := uint64(0); k < keys; k++ {
			if v, ok, err := db.Get(k); err != nil || ok {
				t.Errorf("%s: Get(%d) = %q, %v, %v; want absent", when, k, v, ok, err)
			}
		}
		it, err := db.NewIterator(0, ^uint64(0))
		if err != nil {
			t.Fatal(err)
		}
		var seen []uint64
		for it.Next() {
			seen = append(seen, it.Key())
		}
		if err := errors.Join(it.Err(), it.Close()); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 || seen[0] != other {
			t.Errorf("%s: iterator sees keys %v, want only %d", when, seen, other)
		}
		if h := db.Health(); h.State != "healthy" {
			t.Errorf("%s: health %+v, want healthy", when, h)
		}
	}

	// The refusal wrote nothing, so the log still takes frames.
	if err := db.Put(other, []byte("logged")); err != nil {
		t.Fatal(err)
	}
	untouched("after the refused append")

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = lsmssd.Open(o); err != nil {
		t.Fatal(err)
	}
	untouched("after reopen")
	if v, ok, err := db.Get(other); err != nil || !ok || string(v) != "logged" {
		t.Errorf("after reopen: Get(%d) = %q, %v, %v; want the logged value", other, v, ok, err)
	}
}
