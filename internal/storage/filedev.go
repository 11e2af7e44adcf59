package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"lsmssd/internal/block"
)

// slotTrailer is the per-slot integrity trailer appended after the
// encoded block: a 4-byte CRC32 (IEEE) of the encoded bytes plus 4 bytes
// of zero padding keeping slots 8-byte aligned. The trailer lives outside
// the block's own blockSize budget, so block packing (and therefore
// BlocksWritten) is byte-identical to a trailerless device.
const slotTrailer = 8

// FileDevice is a file-backed block store. Block id n occupies the byte
// range [(n-1)*slot, n*slot) of the backing file, where slot is the block
// size plus an integrity trailer: every write stores a CRC32 of the
// encoded block, and every read verifies it, returning ErrCorrupt on
// mismatch — a torn block write or bit rot is detected loudly rather than
// decoded into garbage. Freed slots are recycled through a free list,
// mirroring an FTL's logical block map. A slot that a checkpoint may name
// is recycled only at a checkpoint boundary: Free parks it in a limbo list
// and ReclaimFreed releases it once a manifest that no longer names it is
// durable, so crash recovery never reads a slot rewritten after the
// checkpoint it is recovering to. A slot written after the newest
// checkpoint capture (LimboMark) is named by no manifest, durable or in
// flight, so Free returns it to the free list at once.
//
// FileDevice exercises the real serialization and I/O path. On its own it
// provides detection, not durability — crash durability comes from the
// WAL + checkpoint protocol above it (see internal/wal). The counters
// have the same meaning as on MemDevice, so experiments can run on either
// device interchangeably.
//
// The device is safe for concurrent use. Reads take only a brief RLock to
// consult the allocator map, then issue an independent pread (os.File.ReadAt
// is safe for concurrent callers) into a pooled slot buffer, verify its
// checksum, and copy the bytes the block occupies into the caller's block,
// so a read into a reused block allocates nothing. Parallel lookups from
// the snapshot-isolated read path scale with the file descriptor rather
// than serializing on one device mutex. Writes encode into pooled buffers
// and pwrite outside the mutex too, so a merge's writes never hold up
// reads; Write copies the block into its slot buffer and keeps nothing.
type FileDevice struct {
	mu        sync.RWMutex // guards next, free, limbo, written, marks, syncErr
	f         *os.File
	blockSize int
	next      BlockID
	free      []BlockID
	limbo     []BlockID // freed slots awaiting ReclaimFreed, oldest first
	// written maps each written slot to the number of LimboMark calls
	// before its write; marks is that count now (starting at 1, so the
	// live slots a reopen inherits, at 0, predate every mark).
	written map[BlockID]uint64
	marks   uint64
	syncErr error // sticky after a failed fsync (never retried)
	cnt     atomicCounters
	bufs    sync.Pool // *[]byte of slot size: encode and read scratch
}

func newFileDevice(f *os.File, blockSize int) *FileDevice {
	d := &FileDevice{
		f:         f,
		blockSize: blockSize,
		next:      1,
		written:   make(map[BlockID]uint64),
		marks:     1,
	}
	d.bufs.New = func() any {
		b := make([]byte, blockSize+slotTrailer)
		return &b
	}
	return d
}

// OpenFileDevice creates (truncating) a file-backed device at path with the
// given block size in bytes.
func OpenFileDevice(path string, blockSize int) (*FileDevice, error) {
	if blockSize < 64 {
		return nil, fmt.Errorf("storage: block size %d too small", blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open device file: %w", err)
	}
	return newFileDevice(f, blockSize), nil
}

// ReopenFileDevice opens an existing device file without truncating it,
// reconstructing the allocator state from the set of live block IDs (as
// recorded in a manifest): live slots are readable, all other slots below
// the high-water mark return to the free list.
func ReopenFileDevice(path string, blockSize int, live []BlockID) (*FileDevice, error) {
	if blockSize < 64 {
		return nil, fmt.Errorf("storage: block size %d too small", blockSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: reopen device file: %w", err)
	}
	d := newFileDevice(f, blockSize)
	for _, id := range live {
		if id == 0 {
			return nil, errors.Join(fmt.Errorf("storage: invalid live block id 0"), f.Close())
		}
		if _, dup := d.written[id]; dup {
			return nil, errors.Join(fmt.Errorf("storage: duplicate live block id %d", id), f.Close())
		}
		d.written[id] = 0 // the manifest being recovered names it
		if id >= d.next {
			d.next = id + 1
		}
	}
	for id := BlockID(1); id < d.next; id++ {
		if _, ok := d.written[id]; !ok {
			d.free = append(d.free, id)
		}
	}
	d.cnt.allocs.Store(int64(len(live)))
	d.cnt.live.Store(int64(len(live)))
	return d, nil
}

// BlockSize returns the device block size in bytes.
func (d *FileDevice) BlockSize() int { return d.blockSize }

// Alloc reserves a block slot, recycling freed slots first.
func (d *FileDevice) Alloc() BlockID {
	d.mu.Lock()
	var id BlockID
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		id = d.next
		d.next++
	}
	d.mu.Unlock()
	d.cnt.allocs.Add(1)
	d.cnt.live.Add(1)
	return id
}

// Write encodes b into a pooled slot buffer, stores it at id's slot and
// counts one block write.
func (d *FileDevice) Write(id BlockID, b *block.Block) error {
	if id == 0 {
		return fmt.Errorf("storage: write to invalid block id 0")
	}
	if b == nil || b.Len() == 0 {
		return fmt.Errorf("storage: write of empty block %d", id)
	}
	buf := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(buf)
	body := (*buf)[:d.blockSize]
	if err := b.Encode(body, d.blockSize); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32((*buf)[d.blockSize:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32((*buf)[d.blockSize+4:], 0)
	d.mu.RLock()
	_, ok := d.written[id]
	d.mu.RUnlock()
	if ok {
		return fmt.Errorf("storage: block %d rewritten in place", id)
	}
	// The pwrite runs without the mutex, as reads' preads do: the slot is
	// this caller's since Alloc handed it out, and no reader asks for it
	// before the write returns and the block is published.
	if _, err := d.f.WriteAt(*buf, d.offset(id)); err != nil {
		return fmt.Errorf("storage: write block %d: %w", id, err)
	}
	d.mu.Lock()
	d.written[id] = d.marks
	d.mu.Unlock()
	d.cnt.writes.Add(1)
	return nil
}

// ReadInto loads the block at id into dst and counts one block read.
func (d *FileDevice) ReadInto(id BlockID, dst *block.Block) error {
	if err := d.load(id, dst); err != nil {
		return err
	}
	d.cnt.reads.Add(1)
	return nil
}

// Read returns a copy of the block at id and counts one block read.
func (d *FileDevice) Read(id BlockID) (*block.Block, error) { return readCopy(d, id) }

// Peek loads the block at id into dst without counting a read.
func (d *FileDevice) Peek(id BlockID, dst *block.Block) error {
	return d.load(id, dst)
}

func (d *FileDevice) load(id BlockID, dst *block.Block) error {
	d.mu.RLock()
	_, ok := d.written[id]
	d.mu.RUnlock()
	if !ok {
		return fmt.Errorf("storage: read block %d: %w", id, ErrNotFound)
	}
	// The slot cannot be recycled mid-read: the engine defers frees until
	// no snapshot references the block, so a readable id stays stable for
	// the duration of this pread.
	buf := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(buf)
	if _, err := d.f.ReadAt(*buf, d.offset(id)); err != nil {
		return fmt.Errorf("storage: read block %d: %w", id, err)
	}
	body := (*buf)[:d.blockSize]
	want := binary.LittleEndian.Uint32((*buf)[d.blockSize:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("storage: read block %d: checksum mismatch (stored %08x, computed %08x): %w",
			id, want, got, ErrCorrupt)
	}
	// The pooled slot buffer goes back to the pool: dst gets a copy of the
	// bytes the block occupies, in dst's own memory.
	return dst.Load(body)
}

// Free releases id. A slot written before the newest LimboMark parks in the
// limbo list, which only ReclaimFreed returns to the allocator: a
// checkpoint manifest, durable or in flight, may still name the block, and
// recovery must be able to read its original contents, so the slot is not
// reused until the next checkpoint has durably stopped naming it. A slot
// written since was captured by no checkpoint and is reusable at once.
func (d *FileDevice) Free(id BlockID) error {
	d.mu.Lock()
	gen, ok := d.written[id]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("storage: free block %d: %w", id, ErrNotFound)
	}
	delete(d.written, id)
	if gen == d.marks {
		d.free = append(d.free, id)
	} else {
		d.limbo = append(d.limbo, id)
	}
	d.mu.Unlock()
	d.cnt.frees.Add(1)
	d.cnt.live.Add(-1)
	return nil
}

// LimboMark returns the current length of the limbo list: the slots
// freed so far and not yet reclaimed. A checkpoint records it when it
// captures the state its manifest will describe and passes it back to
// ReclaimFreed once that manifest is durable. From the mark on, every slot
// written before it counts as one a manifest may name.
func (d *FileDevice) LimboMark() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.marks++
	return len(d.limbo)
}

// ReclaimFreed returns the first mark limbo slots — those freed before the
// matching LimboMark — to the free list. Called by the DB layer immediately
// after a checkpoint manifest is durably written: no recovery path can
// reference a slot freed before that manifest's state was captured. Slots
// freed after the mark stay parked: the manifest just written may still
// name them, so they wait for the next checkpoint. Marks come from one
// caller at a time (checkpoints are serialized), so limbo only ever shrinks
// from the front between a mark and its reclaim.
func (d *FileDevice) ReclaimFreed(mark int) (reclaimed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if mark > len(d.limbo) {
		mark = len(d.limbo)
	}
	d.free = append(d.free, d.limbo[:mark]...)
	d.limbo = append(d.limbo[:0:0], d.limbo[mark:]...)
	return mark
}

// Sync flushes the backing file to stable storage. The DB layer calls it
// before writing a checkpoint manifest so the manifest never references
// volatile block contents.
//
// The fsync runs without the device mutex — the mutex guards the allocator
// maps and the sticky error, never a syscall — so reads, writes and frees
// proceed while a checkpoint's sync is in flight. Blocks written while it
// runs may or may not be covered; a checkpoint only relies on the blocks
// written before it called Sync.
//
// A sync failure is sticky: a failed fsync may discard dirty pages and
// clear the kernel's error state, so a retried fsync could falsely report
// the lost blocks durable. Once Sync has failed, every later Sync returns
// the same error — no checkpoint can be cut past the failure, and the
// store must reopen from its last durable state.
func (d *FileDevice) Sync() error {
	d.mu.RLock()
	err := d.syncErr
	d.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := d.f.Sync(); err != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.syncErr == nil {
			d.syncErr = fmt.Errorf("storage: sync device file: %w", err)
		}
		return d.syncErr
	}
	return nil
}

// Counters returns a snapshot of the accounting state.
func (d *FileDevice) Counters() Counters { return d.cnt.snapshot() }

// ResetCounters zeroes the traffic counters.
func (d *FileDevice) ResetCounters() { d.cnt.resetTraffic() }

// Close closes the backing file.
func (d *FileDevice) Close() error {
	return d.f.Close()
}

func (d *FileDevice) offset(id BlockID) int64 {
	return int64(id-1) * int64(d.blockSize+slotTrailer)
}
