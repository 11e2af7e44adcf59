package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"lsmssd/internal/block"
)

func testBlock(keys ...block.Key) *block.Block {
	rs := make([]block.Record, len(keys))
	for i, k := range keys {
		rs[i] = block.Record{Key: k, Payload: []byte("v")}
	}
	return block.New(rs)
}

// devices returns one of each Device implementation for table-driven tests.
func devices(t *testing.T) map[string]Device {
	t.Helper()
	fd, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.blk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	md := NewMemDevice()
	t.Cleanup(func() { md.Close() })
	return map[string]Device{"mem": md, "file": fd}
}

// TestFileDeviceReadKeepsOnlyUsedBytes: ReadInto reads the slot into a
// pooled buffer and copies only the bytes the block occupies into the
// caller's block, so what a read into a fresh block allocates follows the
// block's contents. A fresh 4,104-byte slot buffer per read alone costs
// 4,864 bytes (its size class); this half-full block's read must cost less
// in all.
func TestFileDeviceReadKeepsOnlyUsedBytes(t *testing.T) {
	d, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.blk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rs := make([]block.Record, 16)
	for i := range rs {
		rs[i] = block.Record{Key: block.Key(i), Payload: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	id := d.Alloc()
	if err := d.Write(id, block.New(rs)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		b := new(block.Block)
		if err := d.ReadInto(id, b); err != nil {
			t.Fatal(err)
		}
		if r, ok := b.Find(15); b.Len() != len(rs) || !ok || !bytes.Equal(r.Payload, rs[15].Payload) {
			t.Fatalf("read back %d records", b.Len())
		}
	}
	read() // fill the buffer pool
	const reads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= 4864 {
		t.Fatalf("a Read of a %d-byte block allocates %d bytes, want < 4864", block.New(rs).EncodedSize(), per)
	}
}

// TestFileDeviceReadIntoReusedBlockAllocatesNothing: a read into a block
// the caller reuses — a merge input, an iterator's run buffer, a cache
// miss's pooled buffer — allocates nothing once the block has held one as
// large.
func TestFileDeviceReadIntoReusedBlockAllocatesNothing(t *testing.T) {
	d, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.blk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rs := make([]block.Record, 32)
	for i := range rs {
		rs[i] = block.Record{Key: block.Key(i), Payload: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	id := d.Alloc()
	if err := d.Write(id, block.New(rs)); err != nil {
		t.Fatal(err)
	}
	var b block.Block
	if n := testing.AllocsPerRun(200, func() {
		if err := d.ReadInto(id, &b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a FileDevice read into a reused block allocates %.1f times, want 0", n)
	}
	if b.Len() != len(rs) || b.MaxKey() != 31 {
		t.Fatalf("read back %d records up to key %d", b.Len(), b.MaxKey())
	}
}

func TestDeviceWriteReadFree(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			id := d.Alloc()
			if id == 0 {
				t.Fatal("Alloc returned invalid id 0")
			}
			b := testBlock(1, 2, 3)
			if err := d.Write(id, b); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := d.Read(id)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got.Len() != 3 || got.MinKey() != 1 || got.MaxKey() != 3 {
				t.Errorf("Read returned wrong block: %v records", got.Len())
			}
			if err := d.Free(id); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if _, err := d.Read(id); !errors.Is(err, ErrNotFound) {
				t.Errorf("Read after Free: err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestDeviceCounters(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			ids := make([]BlockID, 5)
			for i := range ids {
				ids[i] = d.Alloc()
				if err := d.Write(ids[i], testBlock(block.Key(i))); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range ids[:3] {
				if _, err := d.Read(id); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Peek(ids[0], new(block.Block)); err != nil {
				t.Fatal(err)
			}
			d.Free(ids[4])
			c := d.Counters()
			want := Counters{Reads: 3, Writes: 5, Allocs: 5, Frees: 1, Live: 4}
			if c != want {
				t.Errorf("Counters = %+v, want %+v", c, want)
			}
		})
	}
}

func TestDeviceRejectsInPlaceRewrite(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			id := d.Alloc()
			if err := d.Write(id, testBlock(1)); err != nil {
				t.Fatal(err)
			}
			if err := d.Write(id, testBlock(2)); err == nil {
				t.Error("in-place rewrite accepted; LSM devices must be append-only per block")
			}
		})
	}
}

func TestDeviceRejectsEmptyBlock(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			id := d.Alloc()
			if err := d.Write(id, block.New(nil)); err == nil {
				t.Error("empty block accepted")
			}
		})
	}
}

func TestDeviceFreeUnknown(t *testing.T) {
	for name, d := range devices(t) {
		t.Run(name, func(t *testing.T) {
			if err := d.Free(12345); err == nil {
				t.Error("Free of unknown block succeeded")
			}
		})
	}
}

func TestFileDeviceRecyclesSlots(t *testing.T) {
	fd, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.blk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	id1 := fd.Alloc()
	if err := fd.Write(id1, testBlock(1)); err != nil {
		t.Fatal(err)
	}
	if err := fd.Free(id1); err != nil {
		t.Fatal(err)
	}
	fd.ReclaimFreed(fd.LimboMark()) // a checkpoint made the free durable
	id2 := fd.Alloc()
	if id2 != id1 {
		t.Errorf("freed slot not recycled: got %d, want %d", id2, id1)
	}
	if err := fd.Write(id2, testBlock(2)); err != nil {
		t.Fatalf("write to recycled slot: %v", err)
	}
	got, err := fd.Read(id2)
	if err != nil || got.MinKey() != 2 {
		t.Errorf("recycled slot read = %v, %v", got, err)
	}
}

// TestFileDeviceReclaimUpToMark: a freed slot is reusable only after a
// ReclaimFreed whose mark was taken after the free — the checkpoint that
// captured its state before the free may still name it.
func TestFileDeviceReclaimUpToMark(t *testing.T) {
	fd, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.blk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	var ids [3]BlockID
	for i := range ids {
		ids[i] = fd.Alloc()
		if err := fd.Write(ids[i], testBlock(block.Key(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	fd.LimboMark() // an earlier checkpoint captured all three blocks
	if err := fd.Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	mark := fd.LimboMark() // a checkpoint captures here
	if err := fd.Free(ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := fd.Alloc(); got == ids[0] || got == ids[1] {
		t.Fatalf("slot %d reused before any reclaim", got)
	}
	if n := fd.ReclaimFreed(mark); n != 1 {
		t.Fatalf("reclaimed %d slots up to the mark, want 1", n)
	}
	if got := fd.Alloc(); got != ids[0] {
		t.Fatalf("allocated slot %d after the reclaim, want %d (freed before the mark)", got, ids[0])
	}
	if got := fd.Alloc(); got == ids[1] {
		t.Fatalf("slot %d was freed after the mark, yet that checkpoint's reclaim released it", got)
	}
	if n := fd.ReclaimFreed(fd.LimboMark()); n != 1 { // the next checkpoint
		t.Fatalf("the next reclaim released %d slots, want 1", n)
	}
	if got := fd.Alloc(); got != ids[1] {
		t.Fatalf("allocated slot %d after the second reclaim, want %d", got, ids[1])
	}
}

// TestFileDeviceFreesUncapturedSlotsAtOnce: a slot written after the newest
// LimboMark is named by no checkpoint, so its free makes it reusable at
// once; a slot written before the mark waits in limbo for a reclaim.
func TestFileDeviceFreesUncapturedSlotsAtOnce(t *testing.T) {
	fd, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.blk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	old := fd.Alloc()
	if err := fd.Write(old, testBlock(1)); err != nil {
		t.Fatal(err)
	}
	mark := fd.LimboMark() // a checkpoint captures old
	fresh := fd.Alloc()
	if err := fd.Write(fresh, testBlock(2)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []BlockID{old, fresh} {
		if err := fd.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := fd.LimboMark(); got != 1 {
		t.Fatalf("limbo holds %d slots, want 1 (only the captured one)", got)
	}
	if got := fd.Alloc(); got != fresh {
		t.Fatalf("allocated slot %d, want %d (freed uncaptured)", got, fresh)
	}
	if got := fd.Alloc(); got == old {
		t.Fatalf("slot %d reused before the reclaim of the checkpoint that captured it", got)
	}
	if n := fd.ReclaimFreed(mark); n != 0 {
		t.Fatalf("reclaim up to the first mark released %d slots, want 0 (old was freed after it)", n)
	}

	// A reopened device inherits live slots a durable manifest names:
	// their frees wait for a reclaim even before any mark.
	path := filepath.Join(t.TempDir(), "reopen.blk")
	fd2, err := OpenFileDevice(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	id := fd2.Alloc()
	if err := fd2.Write(id, testBlock(3)); err != nil {
		t.Fatal(err)
	}
	if err := fd2.Close(); err != nil {
		t.Fatal(err)
	}
	fd3, err := ReopenFileDevice(path, 4096, []BlockID{id})
	if err != nil {
		t.Fatal(err)
	}
	defer fd3.Close()
	if err := fd3.Free(id); err != nil {
		t.Fatal(err)
	}
	if got := fd3.Alloc(); got == id {
		t.Fatalf("slot %d named by the recovered manifest reused before a reclaim", got)
	}
}

// Property: on both devices, any interleaving of writes and frees keeps
// Live == Allocs - Frees, and every live block reads back its content.
func TestQuickDeviceAccounting(t *testing.T) {
	run := func(mkdev func() Device) func(ops []uint8) bool {
		return func(ops []uint8) bool {
			d := mkdev()
			defer d.Close()
			live := make(map[BlockID]block.Key)
			var order []BlockID
			k := block.Key(1)
			for _, op := range ops {
				if op%3 != 0 || len(order) == 0 {
					id := d.Alloc()
					if err := d.Write(id, testBlock(k)); err != nil {
						return false
					}
					live[id] = k
					order = append(order, id)
					k++
				} else {
					id := order[int(op)%len(order)]
					if _, ok := live[id]; !ok {
						continue
					}
					if err := d.Free(id); err != nil {
						return false
					}
					delete(live, id)
				}
			}
			c := d.Counters()
			if c.Live != c.Allocs-c.Frees || c.Live != int64(len(live)) {
				return false
			}
			for id, want := range live {
				var b block.Block
				if err := d.Peek(id, &b); err != nil || b.MinKey() != want {
					return false
				}
			}
			return true
		}
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(run(func() Device { return NewMemDevice() }), cfg); err != nil {
		t.Errorf("mem: %v", err)
	}
	dir := t.TempDir()
	n := 0
	if err := quick.Check(run(func() Device {
		n++
		fd, err := OpenFileDevice(filepath.Join(dir, fmt.Sprintf("q%d.blk", n)), 512)
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}), cfg); err != nil {
		t.Errorf("file: %v", err)
	}
}
