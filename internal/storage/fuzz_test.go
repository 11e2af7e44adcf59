package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lsmssd/internal/block"
)

// encodeSlot renders an intact on-disk slot image (encoded block plus CRC
// trailer) for seeding the fuzzer.
func encodeSlot(f *testing.F, blockSize int) []byte {
	f.Helper()
	b := block.New([]block.Record{
		{Key: 1, Payload: []byte("x")},
		{Key: 2, Tombstone: true},
	})
	slot := make([]byte, blockSize+slotTrailer)
	if err := b.Encode(slot[:blockSize], blockSize); err != nil {
		f.Fatal(err)
	}
	binary.LittleEndian.PutUint32(slot[blockSize:], crc32.ChecksumIEEE(slot[:blockSize]))
	return slot
}

// FuzzBlockChecksum splices arbitrary bytes over a block slot on disk and
// proves the read path classifies every mutation: when the stored CRC does
// not cover the body the read must fail with ErrCorrupt, and when it does
// the read must either decode a well-formed block or reject the body with
// a structural error — never panic, never hand back garbage.
func FuzzBlockChecksum(f *testing.F) {
	const blockSize = 128
	good := encodeSlot(f, blockSize)
	f.Add(good)
	flipped := append([]byte(nil), good...)
	flipped[5] ^= 1 // single body bit flip: the CRC must catch it
	f.Add(flipped)
	f.Add(make([]byte, blockSize+slotTrailer)) // zeroed slot
	f.Add([]byte{1, 2, 3})                     // short write, rest of the slot zero

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "dev")
		d, err := OpenFileDevice(path, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := d.Close(); err != nil {
				t.Error(err)
			}
		}()
		id := d.Alloc()
		if err := d.Write(id, block.New([]block.Record{{Key: 1, Payload: []byte("x")}})); err != nil {
			t.Fatal(err)
		}

		// Overwrite the slot through an independent handle on the same
		// inode; the fuzz input is truncated or zero-padded to slot size.
		slot := make([]byte, blockSize+slotTrailer)
		copy(slot, raw)
		fh, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.WriteAt(slot, 0); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}

		body := slot[:blockSize]
		stored := binary.LittleEndian.Uint32(slot[blockSize:])
		crcOK := crc32.ChecksumIEEE(body) == stored

		got, err := d.Read(id)
		if !crcOK {
			if err == nil {
				t.Fatal("stored CRC does not cover the body, but Read succeeded")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("checksum mismatch surfaced as %v, want ErrCorrupt", err)
			}
			return
		}
		if err != nil {
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("CRC covers the body, but Read reported corruption: %v", err)
			}
			return // structurally invalid block under a valid CRC: rejected
		}
		if got == nil {
			t.Fatal("Read returned nil block and nil error")
		}
		c := got.Cursor()
		prev, first := block.Key(0), true
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			if !first && prev >= r.Key {
				t.Fatalf("read block violates ordering: %d >= %d", prev, r.Key)
			}
			prev, first = r.Key, false
		}
	})
}
