package block

import (
	"encoding/binary"
	"fmt"
)

// Binary block format (little endian), the bytes a Block is and the bytes
// the file-backed device stores:
//
//	offset 0: magic (2 bytes) = 0x4C53 ("LS")
//	offset 2: record count (uint16)
//	offset 4: records, each:
//	    key     uint64
//	    flags   uint8 (bit 0: tombstone)
//	    plen    uint16
//	    payload plen bytes
//
// A block always fits in one device block; Encode reports an error if it
// would not.

const (
	headerSize   = 4
	recordHeader = 8 + 1 + 2 // key, flags, payload length
	magic        = 0x4C53

	flagTombstone = 1 << 0

	// MaxRecords is the most records one block's uint16 count holds.
	MaxRecords = 0xFFFF
	// MaxPayload is the longest payload a record's uint16 length holds.
	MaxPayload = 0xFFFF
)

// EncodedSize returns the number of bytes Encode would produce.
func (b *Block) EncodedSize() int {
	return max(len(b.buf), headerSize)
}

// Encode serializes the block into dst, which must be at least blockSize
// bytes; the remainder of dst is zeroed. It reports an error if the block
// does not fit.
func (b *Block) Encode(dst []byte, blockSize int) error {
	if len(dst) < blockSize {
		return fmt.Errorf("block: encode buffer %d < block size %d", len(dst), blockSize)
	}
	if n := b.EncodedSize(); n > blockSize {
		return fmt.Errorf("block: %d records (%d bytes) exceed block size %d", b.Len(), n, blockSize)
	}
	n := copy(dst, b.buf)
	if n == 0 {
		binary.LittleEndian.PutUint16(dst[0:2], magic)
		binary.LittleEndian.PutUint16(dst[2:4], 0)
		n = headerSize
	}
	clear(dst[n:blockSize])
	return nil
}

// EncodedLen returns how many leading bytes of src the block encoded in it
// occupies: the header and every record, not the zeroed tail Encode pads
// the device block with. For a src that does not parse it returns
// len(src), and Decode reports what is wrong.
func EncodedLen(src []byte) int {
	if len(src) < headerSize {
		return len(src)
	}
	off := headerSize
	for i := int(binary.LittleEndian.Uint16(src[2:4])); i > 0; i-- {
		if off+recordHeader > len(src) {
			return len(src)
		}
		off += encodedRecordSize(int(binary.LittleEndian.Uint16(src[off+9:])))
	}
	return min(off, len(src))
}

// Decode returns the block encoded at the start of src, validated by
// Parse. The block is src itself (its occupied prefix), not a copy: it
// owns src from here on, and the caller must not reuse it.
func Decode(src []byte) (*Block, error) {
	b := new(Block)
	if err := b.Parse(src); err != nil {
		return nil, err
	}
	return b, nil
}

// Parse validates the block encoded at the start of src in place — magic,
// record bounds, strictly increasing keys — and makes b that prefix of
// src, without copying or allocating. b aliases src afterwards. On error b
// is left empty.
func (b *Block) Parse(src []byte) error {
	n, err := check(src)
	if err != nil {
		b.buf = nil
		return err
	}
	b.buf = src[:n:n]
	return nil
}

// Load validates the block encoded at the start of src, as Parse does, and
// copies it into b's own memory: a caller-owned block refilled by every
// read allocates only when it meets a larger block than it held before.
func (b *Block) Load(src []byte) error {
	n, err := check(src)
	if err != nil {
		b.buf = b.buf[:0]
		return err
	}
	b.buf = append(b.buf[:0], src[:n]...)
	return nil
}

// check validates the encoded block at the start of src and returns the
// number of bytes it occupies.
func check(src []byte) (int, error) {
	if len(src) < headerSize {
		return 0, fmt.Errorf("block: short buffer: %d bytes", len(src))
	}
	if m := binary.LittleEndian.Uint16(src[0:2]); m != magic {
		return 0, fmt.Errorf("block: bad magic %#x", m)
	}
	count := int(binary.LittleEndian.Uint16(src[2:4]))
	off := headerSize
	var prev Key
	for i := 0; i < count; i++ {
		if off+recordHeader > len(src) {
			return 0, fmt.Errorf("block: truncated record %d", i)
		}
		k := Key(binary.LittleEndian.Uint64(src[off:]))
		if i > 0 && k <= prev {
			return 0, fmt.Errorf("block: records out of order at %d: %d >= %d", i, prev, k)
		}
		prev = k
		off += encodedRecordSize(int(binary.LittleEndian.Uint16(src[off+9:])))
		if off > len(src) {
			return 0, fmt.Errorf("block: truncated payload in record %d", i)
		}
	}
	return off, nil
}
