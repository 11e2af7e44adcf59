package wal

import (
	"path/filepath"
	"testing"
)

// benchFrame returns one put op whose frame is frameBytes long on disk:
// 8 bytes of frame header, 12 of sequence and op count, 13 of op header,
// then the value.
func benchFrame(frameBytes int) []Op {
	return []Op{{Key: 1, Value: make([]byte, frameBytes-33)}}
}

// BenchmarkCommitSyncEvery times one SyncEvery commit of a 924-byte frame
// (a durable-mix-sized batch): the frame write plus the sync that makes it
// durable, segment rotations included.
func BenchmarkCommitSyncEvery(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "bench.wal"), 1, Options{Policy: SyncEvery})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ops := benchFrame(924)
	b.SetBytes(924)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Append(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteNoSync times writing a 133-byte frame (one put of a
// 100-byte value) with no sync: its encoding into the log's buffer, plus
// a share of the one 64 KiB file write (and zero fill) per ~490 frames.
// On a 2-vCPU ext4 container, three alternated runs per side, it took
// 0.92–1.09 µs when every frame was its own pwrite and 0.28–0.32 µs
// buffered.
func BenchmarkWriteNoSync(b *testing.B) {
	l, err := Open(filepath.Join(b.TempDir(), "bench.wal"), 1, Options{Policy: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	ops := benchFrame(133)
	b.SetBytes(133)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Write(ops); err != nil {
			b.Fatal(err)
		}
	}
}
