package block

import (
	"encoding/binary"
	"fmt"
)

// Binary block format (little endian), used by the file-backed device:
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
	headerSize = 4
	magic      = 0x4C53

	flagTombstone = 1 << 0
)

// EncodedSize returns the number of bytes Encode would produce.
func (b *Block) EncodedSize() int {
	n := headerSize
	for _, r := range b.records {
		n += encodedRecordSize(len(r.Payload))
	}
	return n
}

// Encode serializes the block into dst, which must be at least blockSize
// bytes; the remainder of dst is zeroed. It reports an error if the block
// does not fit.
func (b *Block) Encode(dst []byte, blockSize int) error {
	if len(dst) < blockSize {
		return fmt.Errorf("block: encode buffer %d < block size %d", len(dst), blockSize)
	}
	if n := b.EncodedSize(); n > blockSize {
		return fmt.Errorf("block: %d records (%d bytes) exceed block size %d", len(b.records), n, blockSize)
	}
	if len(b.records) > 0xFFFF {
		return fmt.Errorf("block: too many records: %d", len(b.records))
	}
	binary.LittleEndian.PutUint16(dst[0:2], magic)
	binary.LittleEndian.PutUint16(dst[2:4], uint16(len(b.records)))
	off := headerSize
	for _, r := range b.records {
		binary.LittleEndian.PutUint64(dst[off:], uint64(r.Key))
		off += 8
		var flags byte
		if r.Tombstone {
			flags |= flagTombstone
		}
		dst[off] = flags
		off++
		binary.LittleEndian.PutUint16(dst[off:], uint16(len(r.Payload)))
		off += 2
		copy(dst[off:], r.Payload)
		off += len(r.Payload)
	}
	for i := off; i < blockSize; i++ {
		dst[i] = 0
	}
	return nil
}

// Decode parses a block previously produced by Encode.
func Decode(src []byte) (*Block, error) {
	if len(src) < headerSize {
		return nil, fmt.Errorf("block: short buffer: %d bytes", len(src))
	}
	if binary.LittleEndian.Uint16(src[0:2]) != magic {
		return nil, fmt.Errorf("block: bad magic %#x", binary.LittleEndian.Uint16(src[0:2]))
	}
	count := int(binary.LittleEndian.Uint16(src[2:4]))
	records := make([]Record, 0, count)
	off := headerSize
	for i := 0; i < count; i++ {
		if off+11 > len(src) {
			return nil, fmt.Errorf("block: truncated record %d", i)
		}
		var r Record
		r.Key = Key(binary.LittleEndian.Uint64(src[off:]))
		off += 8
		flags := src[off]
		off++
		r.Tombstone = flags&flagTombstone != 0
		plen := int(binary.LittleEndian.Uint16(src[off:]))
		off += 2
		if off+plen > len(src) {
			return nil, fmt.Errorf("block: truncated payload in record %d", i)
		}
		if plen > 0 {
			r.Payload = make([]byte, plen)
			copy(r.Payload, src[off:off+plen])
		}
		off += plen
		records = append(records, r)
	}
	return NewChecked(records)
}
