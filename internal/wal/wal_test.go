package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testBase(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "store.blk.wal")
}

func mustOpen(t *testing.T, base string, nextSeq uint64, o Options) *Log {
	t.Helper()
	l, err := Open(base, nextSeq, o)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// collect replays everything after afterSeq into a flat op list.
func collect(t *testing.T, base string, afterSeq uint64) (ReplayInfo, []Op) {
	t.Helper()
	var ops []Op
	info, err := Replay(base, afterSeq, func(seq uint64, frame []Op) error {
		ops = append(ops, frame...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, ops
}

func TestAppendReplayRoundTrip(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	var want []Op
	for i := 0; i < 50; i++ {
		frame := []Op{{Key: uint64(i), Value: []byte(fmt.Sprintf("v%d", i))}}
		if i%7 == 0 {
			frame = append(frame, Op{Key: uint64(i + 1000), Delete: true})
		}
		seq, _, err := l.Append(frame)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		want = append(want, frame...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	info, got := collect(t, base, 0)
	if info.Frames != 50 || info.LastSeq != 50 || info.TornBytes != 0 {
		t.Fatalf("info = %+v", info)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Delete != want[i].Delete ||
			string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Replay after a checkpoint sequence skips covered frames but still
	// reports the highest sequence for Open.
	info, got = collect(t, base, 30)
	if info.Frames != 20 || info.LastSeq != 50 {
		t.Fatalf("partial replay info = %+v", info)
	}
	if got[0].Key != 30 { // frame 31 carries key 30
		t.Fatalf("first replayed key = %d, want 30", got[0].Key)
	}
}

func TestTornTailTruncatedAndAppendContinues(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	for i := 0; i < 10; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("x")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A power cut can leave arbitrary garbage after the last synced frame.
	segs, err := SegmentFiles(base)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, err %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x42, 0x42}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	info, ops := collect(t, base, 0)
	if info.Frames != 10 || len(ops) != 10 {
		t.Fatalf("replay after torn tail: %+v, %d ops", info, len(ops))
	}
	if info.TornBytes != int64(len(garbage)) {
		t.Fatalf("torn bytes = %d, want %d", info.TornBytes, len(garbage))
	}

	// The truncation is physical: a fresh scan is clean, and appending
	// resumes at the right sequence.
	info, _ = collect(t, base, 0)
	if info.TornBytes != 0 {
		t.Fatalf("second replay still torn: %+v", info)
	}
	l = mustOpen(t, base, info.LastSeq+1, Options{Policy: SyncEvery})
	if seq, _, err := l.Append([]Op{{Key: 99, Value: []byte("after")}}); err != nil || seq != 11 {
		t.Fatalf("append after recovery: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 11 {
		t.Fatalf("frames after resume = %d, want 11", info.Frames)
	}
}

func TestCorruptionInNonFinalSegmentRefused(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("0123456789")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := SegmentFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	// Flip one payload byte in the middle of the first (sealed) segment.
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(base, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay error = %v, want ErrCorrupt", err)
	}
}

func TestRotationAndGC(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery, SegmentBytes: 256})
	sawRotation := false
	var lastSeq uint64
	for i := 0; i < 60; i++ {
		seq, rotated, err := l.Append([]Op{{Key: uint64(i), Value: []byte("0123456789")}})
		if err != nil {
			t.Fatal(err)
		}
		sawRotation = sawRotation || rotated
		lastSeq = seq
	}
	if !sawRotation {
		t.Fatal("no rotation at 256-byte segments")
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("stats = %+v", st)
	}

	removed, err := l.GC(lastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if removed != st.Segments-1 {
		t.Fatalf("GC removed %d segments, want %d", removed, st.Segments-1)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("segments after GC = %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the active segment remains; a checkpoint-aware replay sees no
	// uncovered frames but still learns the last sequence.
	info, ops := collect(t, base, lastSeq)
	if len(ops) != 0 || info.LastSeq != lastSeq {
		t.Fatalf("post-GC replay: %+v, %d ops", info, len(ops))
	}

	// Partial GC keeps every segment holding uncovered frames: after a
	// checkpoint at lastSeq+30, frames lastSeq+31..lastSeq+60 must all
	// survive, whatever the segment boundaries.
	l = mustOpen(t, base, lastSeq+1, Options{Policy: SyncEvery, SegmentBytes: 256})
	for i := 0; i < 60; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("0123456789")}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.GC(lastSeq + 30); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, lastSeq+30); info.Frames != 30 || info.LastSeq != lastSeq+60 {
		t.Fatalf("after partial GC: %+v, want 30 uncovered frames up to %d", info, lastSeq+60)
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncNever})
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 12; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	info, ops := collect(t, base, 0)
	if info.Frames != 5 || len(ops) != 5 {
		t.Fatalf("after crash: %+v, %d ops (want exactly the synced prefix)", info, len(ops))
	}

	// Under SyncEvery a crash loses nothing.
	l = mustOpen(t, base, info.LastSeq+1, Options{Policy: SyncEvery})
	if _, _, err := l.Append([]Op{{Key: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 6 {
		t.Fatalf("SyncEvery crash lost frames: %+v", info)
	}
}

func TestTornSegmentHeaderRemoved(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	if _, _, err := l.Append([]Op{{Key: 1, Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash during the creation of the next segment: the file
	// exists but its header never hit the disk intact.
	torn := segPath(base, 2)
	if err := os.WriteFile(torn, []byte{'L', 'S'}, 0o644); err != nil {
		t.Fatal(err)
	}
	info, ops := collect(t, base, 0)
	if info.Frames != 1 || len(ops) != 1 || info.TornBytes != 2 {
		t.Fatalf("replay with torn header: %+v", info)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("torn segment not removed")
	}
}

func TestAppendValidation(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{})
	if _, _, err := l.Append(nil); err == nil {
		t.Error("empty append accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]Op{{Key: 1}}); err == nil {
		t.Error("append after close accepted")
	}
	if _, err := Open(base, 0, Options{}); err == nil {
		t.Error("zero next sequence accepted")
	}
}

func TestAppendRejectsFramesReplayWouldRefuse(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncNever})

	// Payload over maxFrameLen: parseFrame would treat such a frame as a
	// torn tail (or ErrCorrupt in a sealed segment) on replay, so it must
	// be refused before it can ever be acknowledged.
	big := make([]byte, 17<<20)
	huge := make([]Op, 4)
	for i := range huge {
		huge[i] = Op{Key: uint64(i), Value: big}
	}
	if _, _, err := l.Append(huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized payload: err = %v, want ErrTooLarge", err)
	}

	// Op count over maxFrameOps: decodePayload would reject it on replay.
	many := make([]Op, maxFrameOps+1)
	for i := range many {
		many[i].Key = uint64(i)
	}
	if _, _, err := l.Append(many); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized op count: err = %v, want ErrTooLarge", err)
	}

	// A rejection writes nothing and burns no sequence: the log stays
	// usable and the next frame still carries sequence 1.
	seq, _, err := l.Append([]Op{{Key: 7, Value: []byte("ok")}})
	if err != nil || seq != 1 {
		t.Fatalf("append after rejection: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, ops := collect(t, base, 0); info.Frames != 1 || len(ops) != 1 {
		t.Fatalf("replay after rejections: %+v, %d ops", info, len(ops))
	}

	// A frame at exactly the op-count cap is fine both ways.
	l = mustOpen(t, base, 2, Options{Policy: SyncNever})
	capped := make([]Op, maxFrameOps)
	for i := range capped {
		capped[i].Key = uint64(i)
	}
	if _, _, err := l.Append(capped); err != nil {
		t.Fatalf("append at op-count cap: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 2 || info.Ops != 1+maxFrameOps {
		t.Fatalf("replay at cap: %+v", info)
	}
}

func TestFailedSyncPoisonsLog(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncNever})
	if _, _, err := l.Append([]Op{{Key: 1, Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the descriptor so the pending fsync fails, as a dying disk
	// would make it. (A closed fd is the portable way to get an fsync
	// error.)
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("failed sync: err = %v, want ErrPoisoned", err)
	}
	// The failure is sticky: durability must not pretend to resume
	// (fsyncgate) even if a later fsync would nominally succeed.
	if _, _, err := l.Append([]Op{{Key: 2}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed sync: err = %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second sync: err = %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("close after poison: err = %v, want ErrPoisoned", err)
	}
}

func TestStatsAndReset(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	for i := 0; i < 4; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i)}, {Key: uint64(i + 100), Delete: true}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Appends != 4 || st.Ops != 8 || st.Syncs != 4 || st.Bytes == 0 || st.NextSeq != 5 {
		t.Fatalf("stats = %+v", st)
	}
	l.ResetCounters()
	st = l.Stats()
	if st.Appends != 0 || st.Ops != 0 || st.Bytes != 0 || st.Syncs != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if st.NextSeq != 5 || st.Segments != 1 {
		t.Fatalf("structural stats must survive reset: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitSharesFsyncs: one fsync covers every frame written before it
// started, so committing the newest of three written frames first leaves
// the other two nothing to fsync — the group commit concurrent writers
// share — and all three survive a power cut.
func TestCommitSharesFsyncs(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	var seqs []uint64
	for i := 0; i < 3; i++ {
		seq, _, err := l.Write([]Op{{Key: uint64(i), Value: []byte("v")}})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("Write fsynced: %+v", st)
	}
	for _, i := range []int{2, 0, 1} {
		if err := l.Commit(seqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 1 || st.Appends != 3 {
		t.Fatalf("three commits of frames written before one fsync: %+v, want 1 sync", st)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if info, ops := collect(t, base, 0); info.Frames != 3 || len(ops) != 3 {
		t.Fatalf("after a power cut: %+v, want all 3 frames", info)
	}
}

// TestIntervalSyncCommitIssuesNoFsync: under SyncInterval the log keeps no
// clock — its owner calls Sync on a timer — so Write and Commit issue no
// fsync however long ago the last one was (the sleep outlasts the 100 ms a
// commit once waited before it synced inline), and one Sync then makes
// every frame durable.
func TestIntervalSyncCommitIssuesNoFsync(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncInterval})
	time.Sleep(120 * time.Millisecond)
	for i := 0; i < 3; i++ {
		seq, _, err := l.Write([]Op{{Key: uint64(i), Value: []byte("v")}})
		if err == nil {
			err = l.Commit(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("Write and Commit under SyncInterval fsynced: %+v", st)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("Sync: %+v, want 1 sync", st)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if info, ops := collect(t, base, 0); info.Frames != 3 || len(ops) != 3 {
		t.Fatalf("after a power cut: %+v, want all 3 frames", info)
	}
}

// TestSyncedCommitAllocatesNothing: a frame written and committed under
// SyncEvery allocates nothing — the frame encodes into the log's buffer, and
// the sync reuses the segment's cached RawConn and the log's bound
// fdatasync callback. The frames stay within one segment: a rotation
// opens a file.
func TestSyncedCommitAllocatesNothing(t *testing.T) {
	l := mustOpen(t, testBase(t), 1, Options{Policy: SyncEvery})
	defer l.Close()
	ops := []Op{{Key: 1, Value: make([]byte, 100)}}
	allocs := testing.AllocsPerRun(50, func() {
		seq, _, err := l.Write(ops)
		if err == nil {
			err = l.Commit(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Write + Commit under SyncEvery: %v allocs, want 0", allocs)
	}
	if st := l.Stats(); st.Syncs < 50 {
		t.Fatalf("%d syncs for 51 committed frames", st.Syncs)
	}
}

// TestCommitAfterRotationClosedItsSegment: a rotation that seals and
// closes the segment an fsync had chosen, before that fsync runs, leaves
// the fsync a closed file. The frames it was to cover are durable — the
// rotation fsynced the segment whole — so the commit succeeds and the log
// is not poisoned.
func TestCommitAfterRotationClosedItsSegment(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery, SegmentBytes: 4096})
	big := make([]byte, 3000)
	seq, _, err := l.Write([]Op{{Key: 1, Value: big}})
	if err != nil {
		t.Fatal(err)
	}
	testHookBeforeSync = func() {
		testHookBeforeSync = nil
		if _, rotated, err := l.Write([]Op{{Key: 2, Value: big}}); err != nil || !rotated {
			t.Errorf("second frame: rotated=%v err=%v, want a rotation", rotated, err)
		}
	}
	t.Cleanup(func() { testHookBeforeSync = nil })
	if err := l.Commit(seq); err != nil {
		t.Fatalf("commit of a frame its rotation sealed: %v", err)
	}
	if _, _, err := l.Append([]Op{{Key: 3}}); err != nil {
		t.Fatalf("append after: %v (the log must not be poisoned)", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 3 {
		t.Fatalf("replay: %+v, want 3 frames", info)
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestZeroFillAheadOfAppends: the first frame of a segment zero-fills the
// next fillChunk bytes, later frames overwrite that fill without growing
// the file, the fill is counted, and Close leaves it in place — Open then
// appends at the end of the frames, not at the file size.
func TestZeroFillAheadOfAppends(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	seg := segPath(base, 1)
	if got := fileSize(t, seg); got != segHeaderSize {
		t.Fatalf("new segment is %d bytes, want just its %d-byte header (no fill at creation)", got, segHeaderSize)
	}
	if _, _, err := l.Append([]Op{{Key: 1, Value: []byte("first")}}); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, seg); got != fillChunk {
		t.Fatalf("after the first frame the segment is %d bytes, want %d", got, fillChunk)
	}
	for i := 2; i <= 100; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("later")}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if got := fileSize(t, seg); got != fillChunk {
		t.Fatalf("frames inside the fill grew the segment to %d bytes", got)
	}
	if want := fillChunk - segHeaderSize - (st.Bytes / 100); st.FillBytes != want {
		t.Fatalf("FillBytes = %d, want %d (the chunk less the header and the first frame)", st.FillBytes, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, seg); got != fillChunk {
		t.Fatalf("Close changed the segment to %d bytes", got)
	}

	info, _ := collect(t, base, 0)
	if info.Frames != 100 || info.TornBytes != 0 {
		t.Fatalf("replay over the fill: %+v", info)
	}
	l = mustOpen(t, base, info.LastSeq+1, Options{Policy: SyncEvery})
	if seq, _, err := l.Append([]Op{{Key: 101, Value: []byte("resumed")}}); err != nil || seq != 101 {
		t.Fatalf("append after reopen: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 101 || info.LastSeq != 101 {
		t.Fatalf("replay after reopen: %+v, want 101 frames", info)
	}
}

// TestZeroFillStopsAtSegmentBytes: the fill never passes SegmentBytes,
// except under a single frame larger than that, which it does not fill
// past at all.
func TestZeroFillStopsAtSegmentBytes(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncNever, SegmentBytes: 4096})
	if _, _, err := l.Append([]Op{{Key: 1, Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // the frame and its fill reach the file
		t.Fatal(err)
	}
	if got := fileSize(t, segPath(base, 1)); got != 4096 {
		t.Fatalf("segment is %d bytes, want the 4096-byte SegmentBytes", got)
	}
	big := make([]byte, 10000)
	for i := range big {
		big[i] = 0xA5
	}
	if _, rotated, err := l.Append([]Op{{Key: 2, Value: big}}); err != nil || !rotated {
		t.Fatalf("oversized frame: rotated=%v err=%v", rotated, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, segPath(base, 2)), int64(segHeaderSize+frameHeader+25+len(big)); got != want {
		t.Fatalf("segment under one oversized frame is %d bytes, want exactly its %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 2 {
		t.Fatalf("replay: %+v", info)
	}
}

// TestZeroTailRules: after the last frame a segment may hold only zeros.
// Non-zero bytes there are a torn tail in the final segment — truncated,
// counting only those bytes, never the fill before them — and ErrCorrupt
// in a sealed one. Open refuses such a tail rather than appending before
// it.
func TestZeroTailRules(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	end := l.size
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(base, 1)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stray := []byte{0x01, 0x00, 0x02}
	if _, err := f.WriteAt(stray, end+1000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, 6, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a non-zero tail: err = %v, want ErrCorrupt", err)
	}
	info, ops := collect(t, base, 0)
	if info.Frames != 5 || len(ops) != 5 || info.TornBytes != int64(len(stray)) {
		t.Fatalf("replay with stray bytes in the fill: %+v, want 5 frames and %d torn bytes", info, len(stray))
	}
	if got := fileSize(t, seg); got != end {
		t.Fatalf("torn tail truncated to %d bytes, want the end of the frames at %d", got, end)
	}

	// The same bytes in a sealed segment are corruption.
	base = testBase(t)
	l = mustOpen(t, base, 1, Options{Policy: SyncEvery, SegmentBytes: 1024})
	for i := 0; i < 40; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("0123456789")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(raw)-1] != 0 {
		t.Fatalf("sealed segment does not end in its zero fill")
	}
	raw[len(raw)-1] = 0x7F
	if err := os.WriteFile(segPath(base, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(base, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over a sealed segment's non-zero tail: err = %v, want ErrCorrupt", err)
	}
}

// TestReplayRejectsGapBetweenSegments: a sealed segment cut short at a frame
// boundary, its lost frames read back as zeros, parses cleanly on its own;
// only the next segment's first sequence shows the frames are missing.
func TestReplayRejectsGapBetweenSegments(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery, SegmentBytes: 1024})
	var ends []int64 // end of each frame in segment 1
	for i := 0; i < 40; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("0123456789")}}); err != nil {
			t.Fatal(err)
		}
		if l.idx == 1 {
			ends = append(ends, l.size)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, _ := collect(t, base, 0); info.Frames != 40 {
		t.Fatalf("intact log: %+v", info)
	}
	raw, err := os.ReadFile(segPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	cut := ends[len(ends)-2] // drop segment 1's last frame
	for i := cut; i < int64(len(raw)); i++ {
		raw[i] = 0
	}
	if err := os.WriteFile(segPath(base, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(base, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over a gap between segments: err = %v, want ErrCorrupt", err)
	}
}

// TestCreateSegmentSyncsDirectory: a segment's directory entry is made
// durable before the segment takes frames — at Open of a fresh log and at
// every rotation.
func TestCreateSegmentSyncsDirectory(t *testing.T) {
	base := testBase(t)
	var synced []string
	testHookDirSynced = func(dir string) { synced = append(synced, dir) }
	t.Cleanup(func() { testHookDirSynced = nil })

	l := mustOpen(t, base, 1, Options{Policy: SyncEvery, SegmentBytes: 256})
	if len(synced) != 1 || synced[0] != filepath.Dir(base) {
		t.Fatalf("directory syncs after creating the first segment: %v, want [%s]", synced, filepath.Dir(base))
	}
	for i := 0; i < 30; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("0123456789")}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Rotations == 0 || int64(len(synced)) != 1+st.Rotations {
		t.Fatalf("%d directory syncs for %d rotations, want one per segment created", len(synced), st.Rotations)
	}
}

// TestCrashInsideZeroFillRecovers: a power cut inside a zero-filled chunk
// leaves the acknowledged frames followed by zeros (and here a torn frame
// among them); recovery keeps every acknowledged frame, the reopened log
// appends after them, and a second power cut inside the same chunk loses
// nothing acknowledged either.
func TestCrashInsideZeroFillRecovers(t *testing.T) {
	base := testBase(t)
	seg := segPath(base, 1)
	l := mustOpen(t, base, 1, Options{Policy: SyncEvery})
	for i := 0; i < 20; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("acked")}}); err != nil {
			t.Fatal(err)
		}
	}
	// A frame written but never committed, then the power cut: Crash drops
	// it to zeros; tear the next frame's first bytes in by hand, as a
	// write the cut interrupted would leave them.
	if _, _, err := l.Write([]Op{{Key: 999, Value: []byte("unacked")}}); err != nil {
		t.Fatal(err)
	}
	end := l.synced
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, seg); got <= end {
		t.Fatalf("crash left %d bytes, want the zero fill past the frames' end at %d", got, end)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x21, 0, 0, 0, 0xAB}, end); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	info, ops := collect(t, base, 0)
	if info.Frames != 20 || len(ops) != 20 || info.TornBytes != 5 {
		t.Fatalf("first recovery: %+v, want 20 frames and 5 torn bytes", info)
	}
	l = mustOpen(t, base, info.LastSeq+1, Options{Policy: SyncEvery})
	for i := 20; i < 30; i++ {
		if _, _, err := l.Append([]Op{{Key: uint64(i), Value: []byte("acked")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	info, ops = collect(t, base, 0)
	if info.Frames != 30 || len(ops) != 30 || info.TornBytes != 0 {
		t.Fatalf("second recovery: %+v, want all 30 acknowledged frames", info)
	}
	for i, op := range ops {
		if op.Key != uint64(i) || string(op.Value) != "acked" {
			t.Fatalf("op %d = %+v", i, op)
		}
	}
}

// copyLog copies the log's segment files into dir as they are on disk now,
// frames still buffered in the Log excluded, and returns the copy's base:
// what a process killed at this instant leaves, since the page cache
// survives a process crash and the Log's memory does not.
func copyLog(t *testing.T, base, dir string) string {
	t.Helper()
	segs, err := SegmentFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, filepath.Base(base))
}

// checkPrefix replays the log at base and fails unless it holds exactly
// frames 1..n of one put each, frame i carrying key i-1; it returns n.
func checkPrefix(t *testing.T, base string) int {
	t.Helper()
	n := 0
	_, err := Replay(base, 0, func(seq uint64, ops []Op) error {
		n++
		if seq != uint64(n) || len(ops) != 1 || ops[0].Key != seq-1 {
			return fmt.Errorf("frame %d: seq %d, ops %+v", n, seq, ops)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWALBufferProcessCrash: under SyncNever frames reach the file a
// fillPiece at a time, so a process killed after writing well past that
// leaves a prefix of the log that misses fewer than fillPiece bytes of
// frames. After a Sync it misses none.
func TestWALBufferProcessCrash(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncNever})
	defer l.Close()
	const frames = 1500 // 1500 × 133 bytes: three fillPieces and some
	ops := benchFrame(133)
	for i := 0; i < frames; i++ {
		ops[0].Key = uint64(i)
		if _, _, err := l.Append(ops); err != nil {
			t.Fatal(err)
		}
	}
	n := checkPrefix(t, copyLog(t, base, t.TempDir()))
	if n == 0 || (frames-n)*133 >= fillPiece {
		t.Fatalf("a process crash kept %d of %d frames: %d bytes lost, want fewer than %d", n, frames, (frames-n)*133, fillPiece)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := checkPrefix(t, copyLog(t, base, t.TempDir())); n != frames {
		t.Fatalf("after Sync a process crash kept %d of %d frames", n, frames)
	}
}

// TestWALBufferFlushFailurePoisonsLog: a failed write of the buffer may
// lose frames SyncNever already acknowledged, so it poisons the log as a
// failed fsync does. The Write that fills the buffer reports it, and every
// later Write, Sync and Close fails the same way.
func TestWALBufferFlushFailurePoisonsLog(t *testing.T) {
	l := mustOpen(t, testBase(t), 1, Options{Policy: SyncNever})
	ops := benchFrame(133)
	for len(l.buf)+133 < fillPiece {
		if _, _, err := l.Write(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.f.Close(); err != nil { // see TestFailedSyncPoisonsLog
		t.Fatal(err)
	}
	if _, _, err := l.Write(ops); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Write that fills the buffer: err = %v, want ErrPoisoned", err)
	}
	if _, _, err := l.Write(ops); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("later Write: err = %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Sync: err = %v, want ErrPoisoned", err)
	}
	if err := l.Close(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Close: err = %v, want ErrPoisoned", err)
	}
}

// TestWALBufferConcurrentCrash: writers append from several goroutines
// while another syncs in a loop, across segment rotations; then the power
// fails. Recovery returns a gap-free prefix of the sequences that holds
// every frame a finished Sync covered, and each writer's frames in the
// order it wrote them. Run it under -race.
func TestWALBufferConcurrentCrash(t *testing.T) {
	base := testBase(t)
	l := mustOpen(t, base, 1, Options{Policy: SyncNever, SegmentBytes: 96 << 10})
	const writers, perWriter = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := benchFrame(133)
			for i := 0; i < perWriter; i++ {
				ops[0].Key = uint64(w)<<32 | uint64(i)
				if _, _, err := l.Append(ops); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	synced := make(chan uint64)
	go func() {
		var covered uint64 // every frame at or below it is durable
		defer func() { synced <- covered }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			upTo := l.LastSeq()
			if err := l.Sync(); err != nil {
				t.Error(err)
				return
			}
			covered = upTo
		}
	}()
	wg.Wait()
	close(stop)
	covered := <-synced
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}

	var n uint64
	next := make([]uint64, writers)
	_, err := Replay(base, 0, func(seq uint64, ops []Op) error {
		n++
		if seq != n {
			return fmt.Errorf("frame %d carries sequence %d", n, seq)
		}
		w, i := ops[0].Key>>32, ops[0].Key&(1<<32-1)
		if i != next[w] {
			return fmt.Errorf("writer %d: frame %d recovered after frame %d", w, i, next[w])
		}
		next[w]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < covered {
		t.Fatalf("recovered %d frames, but a finished Sync covered %d", n, covered)
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatalf("no rotation: %+v", st)
	}
}

// TestWALBufferWriteAllocatesNothing: a Write under SyncNever encodes into
// the log's buffer and, once a fillPiece of frames is there, writes it and
// the zero fill ahead of it, with no allocation either way.
func TestWALBufferWriteAllocatesNothing(t *testing.T) {
	l := mustOpen(t, testBase(t), 1, Options{Policy: SyncNever})
	defer l.Close()
	ops := benchFrame(133)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, _, err := l.Write(ops); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Write under SyncNever: %v allocs, want 0", allocs)
	}
	if l.written < 3*fillPiece {
		t.Fatalf("2001 frames wrote %d bytes to the file, want the buffer written at least three times", l.written)
	}
}
