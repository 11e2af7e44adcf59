package core

import (
	"lsmssd/internal/block"
)

// Put inserts or updates the record for k: a one-op ApplyBatch.
func (t *Tree) Put(k block.Key, payload []byte) {
	t.ApplyBatch([]block.Op{{Key: uint64(k), Value: payload}})
}

// Delete removes k: a one-op ApplyBatch. If k lives in L0 the request
// executes there (the record is replaced by a tombstone); otherwise the
// delete is logged as a tombstone record that cancels matching records
// during merges.
func (t *Tree) Delete(k block.Key) {
	t.ApplyBatch([]block.Op{{Key: uint64(k), Delete: true}})
}

// ApplyBatch is the tree's one mutation entry: it lands ops in L0 in order
// under L0's mutex and advances L0's generation. It publishes nothing: the
// next reader captures L0 (publish), and since a capture takes the same
// mutex, no reader observes a prefix of the batch. A run of writes with no
// reader between them therefore changes L0's nodes in place, and the
// per-request overhead (the caller's one overflow check) is paid once per
// batch rather than len(ops) times. Storage levels change only through
// merges, which ApplyBatch does not drive: after the mutation the caller
// (internal/compaction) runs or schedules the overflow cascade via
// CompactionStep/RunCascade. It cannot fail, and it needs no lock of the
// caller's: concurrent batches are each atomic, in memMu's order.
//
// Request statistics count each op individually, keeping a batched
// workload's Stats comparable to the same workload issued record by
// record.
func (t *Tree) ApplyBatch(ops []block.Op) {
	t.memMu.Lock()
	defer t.memMu.Unlock()
	for _, op := range ops {
		k := block.Key(op.Key)
		t.cnt.requests.Add(1)
		if op.Delete {
			t.cnt.deletes.Add(1)
			t.cnt.requestBytes.Add(8) // a delete request carries only the key
			// A key already tombstoned in L0 is already logged.
			if r, ok := t.mem.Get(k); !ok || !r.Tombstone {
				t.mem.Put(block.Record{Key: k, Tombstone: true})
			}
			continue
		}
		r := block.Record{Key: k, Payload: op.Value}
		t.mem.Put(r)
		t.cnt.inserts.Add(1)
		t.cnt.requestBytes.Add(int64(r.Size()))
	}
	t.gen.Add(1)
}

// Get returns the payload stored for k. It pins the current snapshot, so
// it is safe to call concurrently with the writer and with other readers.
func (t *Tree) Get(k block.Key) ([]byte, bool, error) {
	p, err := t.PinView()
	if err != nil {
		return nil, false, err
	}
	defer p.Unpin()
	return p.View().Get(k)
}

// Scan calls fn for every live record with key in [lo, hi], in key order,
// stopping early when fn returns false. The whole scan runs against one
// snapshot: merges that complete mid-scan do not change what it sees. The
// payload is valid only until fn returns.
func (t *Tree) Scan(lo, hi block.Key, fn func(k block.Key, payload []byte) bool) error {
	v, err := t.AcquireView()
	if err != nil {
		return err
	}
	defer v.Release()
	return v.Scan(lo, hi, fn)
}
