// Package wal implements the engine's write-ahead log: a CRC32-framed,
// segment-rotating redo log that makes acknowledged writes durable across
// crashes, closing the gap the checkpoint-only manifest leaves open (a
// crash between checkpoints would otherwise lose every request since the
// last one).
//
// Layout. The log is a set of sibling segment files, "<base>.00000001",
// "<base>.00000002", ...; each segment starts with a 16-byte header
// (magic, version, first frame sequence) followed by frames:
//
//	u32 length   payload length in bytes
//	u32 crc      CRC32 (IEEE) of the payload
//	payload:
//	    u64 seq      frame sequence, contiguous across segments
//	    u32 nops     operations in the frame
//	    per op: u8 kind (0 put, 1 delete), u64 key, u32 vlen, value
//
// One frame holds one commit: a single Put or Delete, or a whole
// WriteBatch, whichever of the DB's shards its operations belong to. That
// is the commit unit — under SyncEvery a batch of a thousand records pays
// one fsync, not a thousand.
//
// Group commit. Writing a frame and making it durable are two steps: Write
// encodes the frame into an in-memory buffer under the log's mutex, and
// Commit applies the sync policy outside it. The buffer reaches the file in
// one write before every sync, at rotation and Close, and whenever it holds
// 64 KiB; so under SyncInterval and SyncNever Commit returns at once, and a
// commit makes no system call unless its frame fills the buffer. Under
// SyncEvery, Commit waits until an fsync covers the frame. One fsync covers
// every frame written before it started (the write that precedes it
// carries all of them), so a writer whose frame an fsync already running
// (or finished) covers issues none of its own: concurrent writers share
// writes and fsyncs. Append is Write plus Commit.
//
// Zero-filled tail. The active segment is kept zero-filled a little ahead
// of its frames in the file: when a write of buffered frames ends past the
// filled end, it is followed by a zero fill of the next 256 KiB (in 64 KiB
// writes, never past SegmentBytes unless one frame is larger). A commit
// therefore overwrites blocks the file system has already allocated and
// written, and the file's size does not change, so the commit's sync is an
// fdatasync: it flushes the frames' data blocks and no file-system
// metadata. Only the first sync after a fill also commits the grown size —
// fdatasync flushes whatever metadata reading the data back needs, which is
// why it is enough for durability. Segment creation writes and syncs only
// the header, so opening a log costs no fill.
//
// End of frames. A frame's length field is never zero, so an all-zero frame
// header marks the end of a segment's frames; Open appends there, not at
// the file size, and every byte after it must be zero.
//
// Torn tails. A power cut can leave a half-written frame at the end of
// the active segment, or bytes of one past the end of its frames. Replay
// verifies every frame's length and CRC, checks that only zeros follow the
// last good frame, and otherwise truncates the segment there — by
// construction nothing at or past a torn frame was ever acknowledged under
// SyncEvery. Damage in any segment but the last is not a crash artifact but
// real corruption, and Replay refuses it rather than silently dropping
// acknowledged data: a bad frame, non-zero bytes after the last frame, or
// a segment whose first sequence does not follow the previous segment's
// last frame (a sealed segment cut short, its lost tail read as zeros).
//
// Checkpoint interaction. Each of the DB's shards records in its manifest
// the last frame sequence its checkpoint covers (manifest.State.WALSeq);
// replay skips that shard's operations in frames at or below it, and GC
// removes the sealed segments below a sequence the DB layer computes from
// every shard's. Rotating to a new segment is the DB layer's cue to
// checkpoint, which bounds both replay time and disk held by the log. The
// checkpoint need not run inside the append that rotated: the sealed
// segment simply stays on disk until the checkpoints covering it have been
// written and GC is called — the DB's checkpointer goroutine does that,
// off the write path.
//
// Concurrency. Every method is safe for concurrent use: writers append
// from several goroutines at once (the DB's writers to different shards),
// while Sync and GC run from background goroutines (the interval sync and
// the checkpointer) and Stats from metrics scrapes. The log's mutex orders
// the frame writes; a second mutex orders the fsyncs, which run outside the
// first so appends continue while one is in flight. GC expects one caller
// at a time.
//
// The frame format is private to this package: frames are constructed and
// synced only here, and the lsmlint wal-frame rule keeps every commit
// point in the DB layer (see internal/lint).
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lsmssd/internal/block"
)

// SyncPolicy selects when appended frames are fsynced.
type SyncPolicy int

const (
	// SyncEvery syncs after every append: an acknowledged write is durable
	// before the call returns. The frame lands in the segment's zero-filled
	// tail, so the sync (fdatasync on Linux) flushes its data blocks only,
	// with no file-system metadata. The default.
	SyncEvery SyncPolicy = iota
	// SyncInterval leaves the fsyncs to the owner's timer: Commit returns at
	// once, as under SyncNever, and the owner calls Sync once per interval
	// from one goroutine, busy log or idle. A power cut therefore loses at
	// most about the last interval's writes, and the surviving log is
	// always a prefix of what was acknowledged. A process crash loses the
	// buffered frames: at most 64 KiB of them, and at most the same
	// interval. The log keeps no clock; without the periodic Sync call
	// frames stay unsynced until rotation or Close.
	SyncInterval
	// SyncNever issues no explicit fsync until rotation or Close; the OS
	// decides when dirty pages reach the platter. Frames reach the file 64
	// KiB at a time, so a process crash, not only a power cut, loses the
	// acknowledged frames still buffered: at most 64 KiB of them.
	SyncNever
)

// String returns the policy name as used in flags and docs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "every"
}

// Options parameterizes a Log.
type Options struct {
	// Policy selects the sync policy (default SyncEvery).
	Policy SyncPolicy
	// SegmentBytes is the rotation threshold (default 4 MiB): an append
	// that would push the active segment past it seals the segment and
	// starts a new one. Append reports the rotation so the DB layer can
	// checkpoint and GC.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Op is one logged modification — an upsert of Value under Key, or a
// delete of Key when Delete is set: the write path's shared op record, so
// a staged batch is logged, and a replayed frame applied, without
// conversion.
type Op = block.Op

// ErrCorrupt reports structural damage to the log outside the torn tail
// of the final segment — damage that cannot be explained by a crash and
// would silently drop acknowledged writes if ignored.
var ErrCorrupt = errors.New("wal: log corrupt")

// ErrTooLarge reports an Append whose frame would exceed the limits
// replay enforces (maxFrameLen payload bytes, maxFrameOps operations per
// frame). Such a frame must never be written: it would be acknowledged
// and fsynced, yet rejected by parseFrame/decodePayload on recovery —
// treated as a torn tail in the active segment (silently dropping it and
// every later frame) or as ErrCorrupt in a sealed one. Nothing is written
// when ErrTooLarge is returned; the caller can split the batch and retry.
var ErrTooLarge = errors.New("wal: frame exceeds replay limits")

// ErrPoisoned reports that a previous fsync, or write of buffered frames,
// failed and the log has permanently refused further appends. On Linux a
// failed fsync can discard the dirty pages and clear the kernel's error
// state, so a retried fsync would falsely report the lost frame durable
// (the "fsyncgate" anomaly); a failed write leaves frames that may already
// be acknowledged partly in the file. Once poisoned, every Append and Sync
// fails; the store must be closed and reopened so recovery replays exactly
// what truly reached disk.
var ErrPoisoned = errors.New("wal: log poisoned by failed sync or write")

// errClosed guards use-after-close inside the package.
var errClosed = errors.New("wal: log closed")

const (
	segMagic      = "LSMW"
	segVersion    = 1
	segHeaderSize = 4 + 4 + 8 // magic, version, first seq
	frameHeader   = 4 + 4     // length, crc
	maxFrameLen   = 64 << 20  // payload byte cap, enforced by Append and parseFrame
	maxFrameOps   = 1 << 20   // per-frame op cap, enforced by Append and decodePayload
	opPut         = 0
	opDelete      = 1

	// fillChunk is how far one zero-fill reaches past the filled end, and
	// fillPiece the largest single zero write. One write of 256 KiB or more
	// leaves the range in large page-cache folios, which makes every later
	// small frame overwrite there several times dearer.
	fillChunk = 256 << 10
	fillPiece = 64 << 10
)

// zeros is the source of every zero-fill write and the reference the
// end-of-frames checks compare against; never written.
var zeros [fillPiece]byte

// segPath renders the segment file name for index idx.
func segPath(base string, idx int) string {
	return fmt.Sprintf("%s.%08d", base, idx)
}

// SegmentFiles returns the log's segment files in index order. It exists
// for harnesses and tests that inspect or damage the on-disk log; the
// engine itself goes through Replay/Open.
func SegmentFiles(base string) ([]string, error) {
	dir, prefix := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	type seg struct {
		idx  int
		path string
	}
	var segs []seg
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix+".") {
			continue
		}
		suffix := name[len(prefix)+1:]
		idx, err := strconv.Atoi(suffix)
		if err != nil || len(suffix) != 8 {
			continue // not a segment (e.g. a temp file)
		}
		segs = append(segs, seg{idx, filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out, nil
}

func segIndex(path string) int {
	i := strings.LastIndexByte(path, '.')
	n, _ := strconv.Atoi(path[i+1:])
	return n
}

// ReplayInfo summarizes one Replay pass.
type ReplayInfo struct {
	Segments  int    // segment files scanned
	Frames    int    // frames delivered to the callback (seq > afterSeq)
	Ops       int    // operations inside delivered frames
	LastSeq   uint64 // highest frame sequence seen, delivered or skipped
	TornBytes int64  // non-zero bytes truncated from the final segment's torn tail (never its zero fill)
}

// Replay scans the log at base in order, delivering every frame with
// sequence greater than afterSeq to fn. A torn tail in the final segment
// is truncated on disk (so a subsequent Open appends after the last good
// frame); a bad frame, non-zero bytes after the last frame, or a gap in
// the sequence between two segments fails with ErrCorrupt. A final
// segment whose header never made it to disk is removed — a header is
// written before any frame and made durable by the first sync of its
// segment, so a torn header means no frame in it was ever acknowledged.
func Replay(base string, afterSeq uint64, fn func(seq uint64, ops []Op) error) (ReplayInfo, error) {
	var info ReplayInfo
	paths, err := SegmentFiles(base)
	if err != nil {
		return info, err
	}
	info.Segments = len(paths)
	lastSeq := afterSeq
	var next uint64 // sequence the next segment must start at
	for si, path := range paths {
		last := si == len(paths)-1
		data, err := os.ReadFile(path)
		if err != nil {
			return info, fmt.Errorf("wal: read segment: %w", err)
		}
		if len(data) < segHeaderSize || string(data[:4]) != segMagic {
			if !last {
				return info, fmt.Errorf("%w: segment %s has a bad header", ErrCorrupt, path)
			}
			// Torn creation: no sync of the segment ever completed, so it
			// holds no acknowledged frame.
			if err := os.Remove(path); err != nil {
				return info, fmt.Errorf("wal: drop torn segment: %w", err)
			}
			info.TornBytes += nonZeroSpan(data)
			break
		}
		if v := binary.LittleEndian.Uint32(data[4:8]); v != segVersion {
			return info, fmt.Errorf("%w: segment %s has unsupported version %d", ErrCorrupt, path, v)
		}
		// Sequences are contiguous across segments: one that does not start
		// where the previous one ended means frames went missing — in a
		// sealed segment cut short, its lost tail reads as the zero fill.
		first := binary.LittleEndian.Uint64(data[8:16])
		if si > 0 && first != next {
			return info, fmt.Errorf("%w: segment %s starts at sequence %d, want %d (the previous segment's last frame + 1)", ErrCorrupt, path, first, next)
		}
		next = first
		off := segHeaderSize
		for off < len(data) && !zeroHeader(data[off:]) {
			frameLen, payload, ok := parseFrame(data[off:])
			if !ok {
				break
			}
			seq, ops, err := decodePayload(payload)
			if err != nil {
				break // CRC-valid yet undecodable: no better than torn
			}
			if seq <= lastSeq && seq > afterSeq {
				return info, fmt.Errorf("%w: %s offset %d: sequence %d not increasing", ErrCorrupt, path, off, seq)
			}
			lastSeq = max(lastSeq, seq)
			next = seq + 1
			if seq > afterSeq {
				info.Frames++
				info.Ops += len(ops)
				if fn != nil {
					if err := fn(seq, ops); err != nil {
						return info, err
					}
				}
			}
			off += frameLen
		}
		if allZero(data[off:]) {
			continue // the frames end in the segment's zero fill, or at its end
		}
		if !last {
			return info, fmt.Errorf("%w: bad frame or non-zero bytes after the last frame at %s offset %d (not the final segment)", ErrCorrupt, path, off)
		}
		if err := os.Truncate(path, int64(off)); err != nil {
			return info, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		info.TornBytes += nonZeroSpan(data[off:])
	}
	info.LastSeq = lastSeq
	return info, nil
}

// zeroHeader reports whether the frame header at the start of b (or what
// is left of one) is all zero: the end of a segment's frames, since a
// frame's length field is never zero.
func zeroHeader(b []byte) bool {
	return allZero(b[:min(len(b), frameHeader)])
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeros))
		if !bytes.Equal(b[:n], zeros[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// nonZeroSpan is the length of b from its first non-zero byte through its
// last: the bytes of a torn frame, without the zero fill around them.
func nonZeroSpan(b []byte) int64 {
	i, j := 0, len(b)
	for i < j && b[i] == 0 {
		i++
	}
	for j > i && b[j-1] == 0 {
		j--
	}
	return int64(j - i)
}

// frameEnd returns the offset just past the last whole frame of the
// segment file data, and whether only zeros follow it.
func frameEnd(data []byte) (end int, clean bool) {
	end = segHeaderSize
	for end < len(data) && !zeroHeader(data[end:]) {
		n, _, ok := parseFrame(data[end:])
		if !ok {
			break
		}
		end += n
	}
	return end, allZero(data[end:])
}

// parseFrame validates the frame at the start of data, returning its total
// length (header + payload) and the payload bytes. ok is false when the
// frame is short, implausibly long, or fails its CRC — the torn-tail cases.
func parseFrame(data []byte) (frameLen int, payload []byte, ok bool) {
	if len(data) < frameHeader {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n < 8+4 || n > maxFrameLen || frameHeader+n > len(data) {
		return 0, nil, false
	}
	crc := binary.LittleEndian.Uint32(data[4:8])
	payload = data[frameHeader : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, false
	}
	return frameHeader + n, payload, true
}

// decodePayload parses a frame payload into its sequence and operations.
// Values are copied out of the read buffer.
func decodePayload(p []byte) (seq uint64, ops []Op, err error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("payload too short (%d bytes)", len(p))
	}
	seq = binary.LittleEndian.Uint64(p[0:8])
	nops := int(binary.LittleEndian.Uint32(p[8:12]))
	if nops < 1 || nops > maxFrameOps {
		return 0, nil, fmt.Errorf("implausible op count %d", nops)
	}
	off := 12
	ops = make([]Op, 0, nops)
	for i := 0; i < nops; i++ {
		if off+1+8+4 > len(p) {
			return 0, nil, fmt.Errorf("truncated op %d", i)
		}
		kind := p[off]
		off++
		key := binary.LittleEndian.Uint64(p[off:])
		off += 8
		vlen := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if off+vlen > len(p) {
			return 0, nil, fmt.Errorf("truncated value in op %d", i)
		}
		op := Op{Key: key}
		switch kind {
		case opPut:
			if vlen > 0 {
				op.Value = append([]byte(nil), p[off:off+vlen]...)
			}
		case opDelete:
			if vlen != 0 {
				return 0, nil, fmt.Errorf("delete op %d carries a value", i)
			}
			op.Delete = true
		default:
			return 0, nil, fmt.Errorf("unknown op kind %d", kind)
		}
		off += vlen
		ops = append(ops, op)
	}
	if off != len(p) {
		return 0, nil, fmt.Errorf("%d trailing bytes after last op", len(p)-off)
	}
	return seq, ops, nil
}

// Stats is a point-in-time snapshot of a Log's accounting.
type Stats struct {
	Appends   int64  // frames appended
	Ops       int64  // operations inside appended frames
	Bytes     int64  // frame bytes appended (headers included)
	Syncs     int64  // explicit fsyncs issued
	SyncNanos int64  // cumulative wall time spent inside fsync
	FillBytes int64  // zero bytes written ahead of the frames in the file
	Rotations int64  // segments sealed
	Segments  int    // segment files currently on disk
	NextSeq   uint64 // sequence the next append will be assigned
}

// Log is an open write-ahead log positioned for appending. All methods
// are safe for concurrent use.
type Log struct {
	base string
	opts Options

	// syncMu orders fsyncs: the one holding it runs the fsync that covers
	// every frame written before it started, and writers queued behind it
	// find their frame covered and return. Lock order: syncMu, then mu.
	syncMu sync.Mutex

	// The fdatasync of syncTo, under syncMu, and of syncLocked, under mu:
	// they may run at once, so each has its own. Both run on rc, the active
	// segment's RawConn, cached when it opens.
	commitSync, sealSync *datasyncer

	mu      sync.Mutex
	f       *os.File
	rc      syscall.RawConn
	idx     int    // active segment index
	size    int64  // append offset: the end of the active segment's frames, buffered ones included
	written int64  // end of the frames in the file; buf holds the rest, up to size
	filled  int64  // the file holds only zeros from written to here
	synced  int64  // prefix of the active segment known durable
	durable uint64 // every frame at or below this sequence is known durable
	buf     []byte // frames written since the last file write (flushLocked)
	segs    []segInfo
	nextSeq uint64
	closed  bool
	poison  error // sticky ErrPoisoned after a failed fsync or file write

	appends, ops, bytes, syncs, rotations atomic.Int64
	syncNanos, fillBytes                  atomic.Int64
}

type segInfo struct {
	idx   int
	first uint64 // first frame sequence the segment can hold
}

// Open positions the log at base for appending, continuing the last
// segment left by a previous incarnation at the end of its last whole
// frame (after Replay has truncated any torn tail; Open refuses a segment
// with non-zero bytes after its frames) or creating the first one. nextSeq
// is the sequence the next append will carry — the caller derives it from
// ReplayInfo.LastSeq.
func Open(base string, nextSeq uint64, o Options) (*Log, error) {
	if nextSeq == 0 {
		return nil, fmt.Errorf("wal: next sequence must be positive")
	}
	l := &Log{base: base, opts: o.withDefaults(), nextSeq: nextSeq,
		buf: make([]byte, 0, 2*fillPiece), commitSync: newDatasyncer(), sealSync: newDatasyncer()}
	paths, err := SegmentFiles(base)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		first, err := readHeader(p)
		if err != nil {
			return nil, err
		}
		l.segs = append(l.segs, segInfo{idx: segIndex(p), first: first})
	}
	if len(paths) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := paths[len(paths)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		return nil, fmt.Errorf("wal: read segment: %w", err)
	}
	end, clean := frameEnd(data)
	if !clean {
		return nil, fmt.Errorf("%w: segment %s has non-zero bytes after its last frame at offset %d (Replay truncates a torn tail)", ErrCorrupt, last, end)
	}
	f, err := os.OpenFile(last, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("wal: open segment: %w", err), f.Close())
	}
	l.f, l.rc = f, rc
	l.idx = segIndex(last)
	l.size, l.written = int64(end), int64(end)
	l.filled = int64(len(data))
	// Everything Replay could read back is on disk; treat it as the
	// durable prefix. Only bytes appended by this incarnation can be
	// dropped by a simulated power cut.
	l.synced = l.size
	l.durable = nextSeq - 1
	return l, nil
}

func readHeader(path string) (firstSeq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close()
	var h [segHeaderSize]byte
	if _, err := f.Read(h[:]); err != nil {
		return 0, fmt.Errorf("%w: segment %s has a short header", ErrCorrupt, path)
	}
	if string(h[:4]) != segMagic {
		return 0, fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, path)
	}
	return binary.LittleEndian.Uint64(h[8:16]), nil
}

// testHookDirSynced, when set by a test, runs after each directory sync.
var testHookDirSynced func(dir string)

// createSegment starts segment idx: it writes the header and syncs the
// directory, so the segment's name is durable before any frame lands in
// it. The header itself is left to the segment's first sync (synced
// starts at 0), which every acknowledged frame in it waits for — one
// flush at creation, not two. It writes no zero fill: the first Write does
// (see fillLocked).
func (l *Log) createSegment(idx int) error {
	path := segPath(l.base, idx)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var h [segHeaderSize]byte
	copy(h[:4], segMagic)
	binary.LittleEndian.PutUint32(h[4:8], segVersion)
	binary.LittleEndian.PutUint64(h[8:16], l.nextSeq)
	if _, err := f.WriteAt(h[:], 0); err != nil {
		return errors.Join(fmt.Errorf("wal: write segment header: %w", err), f.Close())
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return errors.Join(fmt.Errorf("wal: create segment: %w", err), f.Close())
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return errors.Join(err, f.Close())
	}
	l.f, l.rc = f, rc
	l.idx = idx
	l.size, l.written = segHeaderSize, segHeaderSize
	l.filled = segHeaderSize
	l.synced = 0
	l.segs = append(l.segs, segInfo{idx: idx, first: l.nextSeq})
	return nil
}

// syncDir fsyncs directory dir, making the names created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	if testHookDirSynced != nil {
		testHookDirSynced(dir)
	}
	return nil
}

// Append commits ops as one frame: Write, then Commit. rotated reports
// that the append sealed the previous segment and started a new one — the
// DB layer's cue to checkpoint; it is meaningful even when err is non-nil,
// because the rotation survives a failure of the subsequent write, and
// the sealed segment still deserves its checkpoint. On error nothing was
// acknowledged and the caller must not apply ops to the tree — though
// after a failed fsync the frame's durability is indeterminate (it may
// reach disk and be replayed), which is why that failure poisons the log
// (ErrPoisoned) and forces recovery rather than letting writes continue.
func (l *Log) Append(ops []Op) (seq uint64, rotated bool, err error) {
	seq, rotated, err = l.Write(ops)
	if err != nil {
		return 0, rotated, err
	}
	if err := l.Commit(seq); err != nil {
		return 0, rotated, err
	}
	return seq, rotated, nil
}

// Write appends ops as one frame without any policy fsync: it assigns the
// next sequence, rotates if the frame would overflow the active segment,
// and encodes the frame into the log's buffer. The buffer reaches the file
// when it holds fillPiece bytes, and before every sync (see flushLocked),
// so a Write below that makes no system call. The frame is not
// acknowledged until Commit(seq) returns nil. rotated is as for Append.
//
// A frame that replay would refuse — over maxFrameLen payload bytes or
// maxFrameOps operations — is rejected up front with ErrTooLarge, before
// anything is written or a sequence consumed.
func (l *Log) Write(ops []Op) (seq uint64, rotated bool, err error) {
	if len(ops) == 0 {
		return 0, false, fmt.Errorf("wal: empty append")
	}
	if len(ops) > maxFrameOps {
		return 0, false, fmt.Errorf("%w: %d operations in one frame (max %d)", ErrTooLarge, len(ops), maxFrameOps)
	}
	n := payloadLen(ops)
	if n > maxFrameLen {
		return 0, false, fmt.Errorf("%w: %d-byte payload (max %d)", ErrTooLarge, n, maxFrameLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, false, errClosed
	}
	if l.poison != nil {
		return 0, false, l.poison
	}
	total := int64(frameHeader + n)
	if l.size+total > l.opts.SegmentBytes && l.size > segHeaderSize {
		if err := l.rotateLocked(); err != nil {
			return 0, false, err
		}
		rotated = true
	}
	seq = l.nextSeq
	l.buf = appendFrame(l.buf, seq, n, ops)
	l.size += total
	l.nextSeq++
	if len(l.buf) >= fillPiece {
		if err := l.flushLocked(); err != nil {
			return 0, rotated, err
		}
	}
	l.appends.Add(1)
	l.ops.Add(int64(len(ops)))
	l.bytes.Add(total)
	return seq, rotated, nil
}

// flushLocked writes the buffered frames to the file in one write at
// written, then zero-fills past them if they ended beyond the filled end.
// A failure poisons the log as a failed fsync does: under SyncInterval and
// SyncNever the buffer may hold frames already acknowledged, and how much
// of it reached the file is unknown.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.WriteAt(l.buf, l.written); err != nil {
		return l.poisonLocked(fmt.Errorf("wal: write frames: %w", err))
	}
	l.written += int64(len(l.buf))
	l.buf = l.buf[:0]
	if l.written > l.filled {
		if err := l.fillLocked(l.written); err != nil {
			return l.poisonLocked(err)
		}
	}
	return nil
}

// fillLocked zero-fills the active segment past frames that have just been
// written up to end, beyond the filled end: through the fillChunk bytes
// from the fillPiece boundary at or below the filled end, capped at
// SegmentBytes (and so nothing when the frames alone reach that far). The
// frames are written first, so the file never has a hole under them. The
// zeros go in aligned pieces of at most fillPiece bytes (see fillChunk).
func (l *Log) fillLocked(end int64) error {
	to := min(l.filled/fillPiece*fillPiece+fillChunk, l.opts.SegmentBytes)
	for off := end; off < to; {
		n := min(to, (off/fillPiece+1)*fillPiece) - off
		if _, err := l.f.WriteAt(zeros[:n], off); err != nil {
			return fmt.Errorf("wal: zero-fill segment: %w", err)
		}
		l.fillBytes.Add(n)
		off += n
	}
	l.filled = max(to, end)
	return nil
}

// Commit applies the sync policy to the frame Write gave seq. Under
// SyncEvery it returns once an fsync covers the frame, issuing one only if
// no fsync that started after the frame was written has covered it; under
// SyncInterval and SyncNever it returns at once. Callers may commit
// concurrently: that is how writers share fsyncs.
func (l *Log) Commit(seq uint64) error {
	if l.opts.Policy == SyncEvery {
		return l.syncTo(seq)
	}
	return nil
}

// testHookBeforeSync, when set by a test, runs in syncTo between choosing
// the file to fsync and fsyncing it.
var testHookBeforeSync func()

// syncTo returns once every frame up to seq is durable, running the fsync
// itself unless one that started after the frame was written already
// covered it. It first writes the buffered frames to the file under mu;
// the fsync then runs under syncMu but not mu, so frames keep being
// written while it is in flight; it covers exactly the frames written
// before it started.
func (l *Log) syncTo(seq uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if l.poison != nil || l.durable >= seq {
		err := l.poison
		l.mu.Unlock()
		return err
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	f, rc, idx, written, upTo := l.f, l.rc, l.idx, l.written, l.nextSeq-1
	l.mu.Unlock()

	if testHookBeforeSync != nil {
		testHookBeforeSync()
	}
	start := time.Now()
	err := l.commitSync.sync(f, rc)
	l.syncNanos.Add(int64(time.Since(start)))

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		if errors.Is(err, os.ErrClosed) && l.idx != idx {
			// A rotation sealed f — fsyncing it whole, under mu — and closed
			// it before this fsync began: every frame this one was to cover
			// is durable already.
			return nil
		}
		return l.poisonLocked(err)
	}
	// A rotation may have sealed f meanwhile (fsyncing it again under mu);
	// the byte offset describes the active segment only while it is f.
	if l.idx == idx {
		l.synced = max(l.synced, written)
	}
	l.durable = max(l.durable, upTo)
	l.syncs.Add(1)
	return nil
}

// payloadLen is the encoded payload size of a frame carrying ops.
func payloadLen(ops []Op) int {
	n := 8 + 4
	for _, op := range ops {
		n += 1 + 8 + 4 + len(op.Value)
	}
	return n
}

// appendFrame appends the frame for seq to buf; n must be payloadLen(ops),
// pre-validated against maxFrameLen so the uint32 length field cannot
// overflow.
func appendFrame(buf []byte, seq uint64, n int, ops []Op) []byte {
	start := len(buf)
	buf = slices.Grow(buf, frameHeader+n)[:start+frameHeader+n]
	frame := buf[start:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
	p := frame[frameHeader:]
	binary.LittleEndian.PutUint64(p[0:8], seq)
	binary.LittleEndian.PutUint32(p[8:12], uint32(len(ops)))
	off := 12
	for _, op := range ops {
		kind, val := byte(opPut), op.Value
		if op.Delete {
			kind, val = opDelete, nil
		}
		p[off] = kind
		off++
		binary.LittleEndian.PutUint64(p[off:], op.Key)
		off += 8
		binary.LittleEndian.PutUint32(p[off:], uint32(len(val)))
		off += 4
		copy(p[off:], val)
		off += len(val)
	}
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(p))
	return buf
}

// rotateLocked seals the active segment (syncing it, so sealed segments
// never carry an undurable tail) and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.rotations.Add(1)
	return l.createSegment(l.idx + 1)
}

// syncLocked writes the buffered frames and fsyncs the active segment with
// mu held: the rotation's seal and Close, which must not let a frame in
// behind the fsync.
func (l *Log) syncLocked() error {
	if l.poison != nil {
		return l.poison
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.synced == l.written {
		l.durable = l.nextSeq - 1
		return nil
	}
	syncStart := time.Now()
	err := l.sealSync.sync(l.f, l.rc)
	l.syncNanos.Add(int64(time.Since(syncStart)))
	if err != nil {
		return l.poisonLocked(err)
	}
	l.synced = l.written
	l.durable = l.nextSeq - 1
	l.syncs.Add(1)
	return nil
}

// poisonLocked records a failed fsync or frame write. Never retry an fsync:
// the kernel may have discarded the dirty pages and cleared its error
// state, so a retry could "succeed" while the frame is gone. Poison the log
// so every later Write/Commit/Sync fails and the store reopens through
// crash recovery, which replays exactly what truly reached disk.
func (l *Log) poisonLocked(err error) error {
	if l.poison == nil {
		l.poison = fmt.Errorf("%w: %v", ErrPoisoned, err)
	}
	return l.poison
}

// Sync makes every frame written so far durable regardless of policy; a
// no-op when they all are. Safe to call while appends run.
func (l *Log) Sync() error {
	l.mu.Lock()
	upTo := l.nextSeq - 1
	l.mu.Unlock()
	return l.syncTo(upTo)
}

// LastSeq returns the sequence of the newest frame written (the one before
// the first sequence of a fresh log when none has been).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Position returns LastSeq together with the active segment's index. The
// index only grows — one per segment sealed, and ResetCounters leaves it
// alone — so the difference of two readings counts the segments sealed
// between them.
func (l *Log) Position() (lastSeq uint64, segment int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1, l.idx
}

// GC removes sealed segments every frame of which has sequence at or
// below upToSeq — i.e. segments fully covered by the checkpoint that
// recorded upToSeq. The active segment is never removed.
//
// The files are unlinked without the log's mutex: removing a
// multi-megabyte segment takes milliseconds, and appends need not wait for
// it. That is safe because covered segments are a prefix of the list,
// appends only ever add at its tail, and GC has one caller at a time (the
// DB runs its checkpoints on one goroutine).
func (l *Log) GC(upToSeq uint64) (removed int, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errClosed
	}
	// Frame sequences are contiguous, so a segment's last frame is the
	// next segment's first minus one.
	n := 0
	for n+1 < len(l.segs) && l.segs[n+1].first-1 <= upToSeq {
		n++
	}
	covered := append([]segInfo(nil), l.segs[:n]...)
	l.mu.Unlock()

	for _, s := range covered {
		if err = os.Remove(segPath(l.base, s.idx)); err != nil {
			err = fmt.Errorf("wal: remove sealed segment: %w", err)
			break
		}
		removed++
	}
	l.mu.Lock()
	l.segs = l.segs[removed:]
	l.mu.Unlock()
	return removed, err
}

// Stats returns a lock-free snapshot of the cumulative counters plus the
// (briefly locked) segment count and next sequence.
func (l *Log) Stats() Stats {
	st := Stats{
		Appends:   l.appends.Load(),
		Ops:       l.ops.Load(),
		Bytes:     l.bytes.Load(),
		Syncs:     l.syncs.Load(),
		SyncNanos: l.syncNanos.Load(),
		FillBytes: l.fillBytes.Load(),
		Rotations: l.rotations.Load(),
	}
	l.mu.Lock()
	st.Segments = len(l.segs)
	st.NextSeq = l.nextSeq
	l.mu.Unlock()
	return st
}

// ResetCounters zeroes the cumulative traffic counters (appends, ops,
// bytes, syncs, fill bytes, rotations), aligning the WAL series with the
// DB's uniform measurement window.
func (l *Log) ResetCounters() {
	l.appends.Store(0)
	l.ops.Store(0)
	l.bytes.Store(0)
	l.syncs.Store(0)
	l.syncNanos.Store(0)
	l.fillBytes.Store(0)
	l.rotations.Store(0)
}

// Close writes the buffered frames, syncs the active segment and closes it.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	return errors.Join(err, l.f.Close())
}

// Crash simulates a power failure for crash testing: the buffered frames
// are never written, as the process's memory would be lost, and every
// frame byte written to the file since the last fsync is overwritten with
// zeros, so the active segment keeps its zero-filled tail as the disk
// would; the log is closed without a final sync. Under SyncEvery this
// loses nothing; under SyncInterval/SyncNever it drops exactly the
// unsynced tail, which is what a real power cut does to the process and
// the page cache.
func (l *Log) Crash() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.written > l.synced {
		_, err = l.f.WriteAt(make([]byte, l.written-l.synced), l.synced)
	}
	return errors.Join(err, l.f.Close())
}
