// Package manifest persists and restores the LSM-tree's in-memory state —
// the per-level block metadata (the cached internal B+tree nodes) and the
// memtable contents — so a file-backed store survives shutdowns.
//
// The manifest is the checkpoint half of the engine's durability story:
// it is written atomically (temp file + rename + directory sync) on Close
// or Checkpoint and records, alongside the tree state, the write-ahead
// log sequence it covers (State.WALSeq). Crash recovery restores the
// checkpoint and then replays WAL frames with sequence greater than
// WALSeq (see internal/wal); the DB layer garbage-collects fully covered
// WAL segments after each checkpoint.
package manifest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"lsmssd/internal/block"
	"lsmssd/internal/btree"
	"lsmssd/internal/storage"
)

// Format (little endian):
//
//	magic   "LSMM"            4 bytes
//	version uint32            4; any other version is refused (ErrVersion)
//	config  9 × uint64        blockCapacity, k0, gamma, epsilon(bits), seed,
//	                          shards, shardID, layout, tierRuns
//	walseq  uint64            last WAL frame sequence this checkpoint covers
//	levels  uint64
//	per level:
//	    runs uint64
//	    per run:
//	        blocks uint64
//	        per block: id, min, max, count, tombstones (uint64 each)
//	memtable:
//	    records uint64
//	    per record: key uint64, flags uint8, plen uint32, payload
//	crc32 of everything above  uint32

const (
	magic   = "LSMM"
	version = 4
)

// ErrNoManifest is returned by Load when the manifest file does not exist.
var ErrNoManifest = errors.New("manifest: not found")

// Load distinguishes the ways a manifest can be unusable so callers (and
// operators reading the error) can tell damage from skew. Each is
// returned wrapped with detail; the on-disk file is never modified.
var (
	// ErrTruncated reports a manifest shorter than its own structure
	// claims — a torn write or an incomplete copy.
	ErrTruncated = errors.New("manifest: truncated")
	// ErrBadMagic reports a file that is not a manifest at all.
	ErrBadMagic = errors.New("manifest: bad magic")
	// ErrChecksum reports body bytes that fail the trailing CRC32.
	ErrChecksum = errors.New("manifest: checksum mismatch")
	// ErrVersion reports a structurally sound manifest written by an
	// incompatible format version.
	ErrVersion = errors.New("manifest: unsupported version")
)

// Config is the subset of the tree configuration that must match between
// the writer and the reader of a manifest.
type Config struct {
	BlockCapacity int
	K0            int
	Gamma         int
	Epsilon       float64
	Seed          int64
	// Shards is the total shard count of the DB this checkpoint belongs
	// to, and ShardID this manifest's index within it (0/… of Shards).
	// A reopen with a different shard count must be rejected — hash
	// routing would send keys to the wrong trees — so the identity is
	// part of the config-match check.
	Shards  int
	ShardID int
	// Layout is the compaction layout the checkpoint was written under
	// (the integer value of policy.LayoutKind: 0 leveling, 1 tiering,
	// 2 lazy leveling) and TierRuns its per-level run budget T (0 under
	// leveling). A reopen under a different layout must be rejected: the
	// on-device runs were shaped by the old layout's invariants.
	Layout   int
	TierRuns int
}

// State is everything needed to reconstruct a tree over an existing
// device. Runs[i] holds level L_{i+1}'s sorted runs newest first; under
// leveling every level has exactly one.
type State struct {
	Config   Config
	WALSeq   uint64                // last WAL frame sequence applied before this checkpoint
	Runs     [][][]btree.BlockMeta // index 0 is L1
	Memtable []block.Record        // key order not required; replayed via Put
}

// Save writes the state atomically to path and returns the size of the
// manifest it wrote, in bytes.
func Save(path string, st State) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	crc := crc32.NewIEEE()
	var n byteCount
	w := bufio.NewWriter(io.MultiWriter(f, crc, &n))

	writeU64 := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			w.Write(buf[:])
		}
	}
	w.WriteString(magic)
	var v32 [4]byte
	binary.LittleEndian.PutUint32(v32[:], version)
	w.Write(v32[:])
	writeU64(
		uint64(st.Config.BlockCapacity),
		uint64(st.Config.K0),
		uint64(st.Config.Gamma),
		floatBits(st.Config.Epsilon),
		uint64(st.Config.Seed),
		uint64(st.Config.Shards),
		uint64(st.Config.ShardID),
		uint64(st.Config.Layout),
		uint64(st.Config.TierRuns),
		st.WALSeq,
		uint64(len(st.Runs)),
	)
	for _, runs := range st.Runs {
		writeU64(uint64(len(runs)))
		for _, metas := range runs {
			writeU64(uint64(len(metas)))
			for _, m := range metas {
				writeU64(uint64(m.ID), uint64(m.Min), uint64(m.Max), uint64(m.Count), uint64(m.Tombstones))
			}
		}
	}
	writeU64(uint64(len(st.Memtable)))
	for _, r := range st.Memtable {
		writeU64(uint64(r.Key))
		flags := byte(0)
		if r.Tombstone {
			flags = 1
		}
		w.WriteByte(flags)
		var l32 [4]byte
		binary.LittleEndian.PutUint32(l32[:], uint32(len(r.Payload)))
		w.Write(l32[:])
		w.Write(r.Payload)
	}
	if err := w.Flush(); err != nil {
		return 0, errors.Join(fmt.Errorf("manifest: %w", err), f.Close())
	}
	var c32 [4]byte
	binary.LittleEndian.PutUint32(c32[:], crc.Sum32())
	if _, err := f.Write(c32[:]); err != nil {
		return 0, errors.Join(fmt.Errorf("manifest: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return 0, errors.Join(fmt.Errorf("manifest: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	// Sync the directory so the rename itself survives a power cut —
	// without it a crash can roll the directory entry back to the previous
	// manifest even though the new file's data blocks are durable.
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return int64(n) + int64(len(c32)), nil
}

// byteCount counts the bytes written through it.
type byteCount int64

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("manifest: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("manifest: sync dir: %w", err)
	}
	return nil
}

// Load reads and verifies a manifest.
func Load(path string) (State, error) {
	var st State
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return st, ErrNoManifest
	}
	if err != nil {
		return st, fmt.Errorf("manifest: %w", err)
	}
	// The plaintext header (magic, version) is checked before the CRC so
	// each failure mode reports its own error: a file that is not a
	// manifest says so instead of "checksum mismatch", and a version skew
	// is reported as skew even though older versions checksum differently.
	if len(raw) < len(magic)+4+4 {
		return st, fmt.Errorf("%w (%d bytes)", ErrTruncated, len(raw))
	}
	if string(raw[:4]) != magic {
		return st, fmt.Errorf("%w %q", ErrBadMagic, raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != version {
		return st, fmt.Errorf("%w %d (this build reads version %d only)", ErrVersion, v, version)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got := crc32.ChecksumIEEE(body); got != binary.LittleEndian.Uint32(tail) {
		return st, fmt.Errorf("%w (stored %08x, computed %08x)",
			ErrChecksum, binary.LittleEndian.Uint32(tail), got)
	}
	r := &reader{buf: body[8:]}
	st.Config = Config{
		BlockCapacity: int(r.u64()),
		K0:            int(r.u64()),
		Gamma:         int(r.u64()),
		Epsilon:       bitsFloat(r.u64()),
		Seed:          int64(r.u64()),
		Shards:        int(r.u64()),
		ShardID:       int(r.u64()),
		Layout:        int(r.u64()),
		TierRuns:      int(r.u64()),
	}
	st.WALSeq = r.u64()
	levels := int(r.u64())
	if levels > 64 {
		return st, fmt.Errorf("manifest: implausible level count %d", levels)
	}
	readMetas := func() []btree.BlockMeta {
		n := int(r.u64())
		metas := make([]btree.BlockMeta, 0, n)
		for j := 0; j < n; j++ {
			metas = append(metas, btree.BlockMeta{
				ID:         storage.BlockID(r.u64()),
				Min:        block.Key(r.u64()),
				Max:        block.Key(r.u64()),
				Count:      int(r.u64()),
				Tombstones: int(r.u64()),
			})
		}
		return metas
	}
	for i := 0; i < levels; i++ {
		nr := int(r.u64())
		if nr > 1<<16 {
			return st, fmt.Errorf("manifest: implausible run count %d in L%d", nr, i+1)
		}
		var runs [][]btree.BlockMeta
		for j := 0; j < nr; j++ {
			runs = append(runs, readMetas())
		}
		st.Runs = append(st.Runs, runs)
	}
	n := int(r.u64())
	st.Memtable = make([]block.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := block.Record{Key: block.Key(r.u64())}
		rec.Tombstone = r.bytes(1)[0] == 1
		plen := int(r.u32())
		if plen > 0 {
			rec.Payload = append([]byte(nil), r.bytes(plen)...)
		}
		st.Memtable = append(st.Memtable, rec)
	}
	if r.err != nil {
		return st, r.err
	}
	return st, nil
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = fmt.Errorf("%w mid-structure", ErrTruncated)
		return make([]byte, n)
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.bytes(4)) }

func floatBits(f float64) uint64 { return uint64(int64(f * 1e9)) }
func bitsFloat(b uint64) float64 { return float64(int64(b)) / 1e9 }
