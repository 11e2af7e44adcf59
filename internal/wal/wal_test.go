package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
