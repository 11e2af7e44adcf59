package block

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Block is an immutable, key-ordered run of records: one B+tree data block
// (leaf) of a level. A block is its encoded bytes — the device format of
// encode.go, byte for byte — so a block read from a device, held in the
// cache or built by a merge is searched and walked in place: Find and
// Cursor read keys and payloads straight out of the bytes, and no record
// slice is ever decoded. The zero value is an empty block.
//
// Blocks deliberately do not know their own capacity B; callers enforce it.
// This keeps a block usable across trees with different record sizes (e.g.
// in tests) and mirrors the paper's model where B is a tree-wide constant.
type Block struct {
	buf []byte // header and records, nothing after; nil for the zero block
}

// New returns a block holding the given records, which must already be
// sorted by key and free of duplicates. The block encodes them into bytes
// of its own; records is not retained.
func New(records []Record) *Block {
	n := headerSize
	for _, r := range records {
		n += encodedRecordSize(len(r.Payload))
	}
	b := &Block{buf: make([]byte, 0, n)}
	b.Reset()
	for _, r := range records {
		b.Append(r)
	}
	return b
}

// NewChecked is like New but verifies ordering and uniqueness, for use at
// trust boundaries (test fixtures).
func NewChecked(records []Record) (*Block, error) {
	b := New(records)
	if _, err := check(b.buf); err != nil {
		return nil, err
	}
	return b, nil
}

// Reset empties the block, keeping its memory for the records appended
// next.
func (b *Block) Reset() {
	b.buf = binary.LittleEndian.AppendUint16(b.buf[:0], magic)
	b.buf = append(b.buf, 0, 0)
}

// Append encodes r after the block's last record. Keys must arrive in
// strictly increasing order; builders and merges guarantee it. It panics
// when the count or the payload length overflows its uint16 field, which
// the write path's value-size check and Config's capacity check rule out.
func (b *Block) Append(r Record) {
	if len(b.buf) < headerSize {
		b.Reset()
	}
	n := b.Len() + 1
	if n > MaxRecords || len(r.Payload) > MaxPayload {
		panic(fmt.Sprintf("block: record %d with a %d-byte payload overflows the format", n, len(r.Payload)))
	}
	binary.LittleEndian.PutUint16(b.buf[2:4], uint16(n))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(r.Key))
	var flags byte
	if r.Tombstone {
		flags |= flagTombstone
	}
	b.buf = append(b.buf, flags)
	b.buf = binary.LittleEndian.AppendUint16(b.buf, uint16(len(r.Payload)))
	b.buf = append(b.buf, r.Payload...)
}

// CopyFrom makes b a copy of src in b's own memory, growing it only when
// src is larger than anything b held before.
func (b *Block) CopyFrom(src *Block) {
	b.buf = append(b.buf[:0], src.buf...)
}

// CopyRange makes b a block of src's records with keys in [lo, hi], in b's
// own memory: one contiguous run of src's bytes behind a fresh header. A
// scan that needs part of a cached block copies only that part.
func (b *Block) CopyRange(src *Block, lo, hi Key) {
	start, end, n := headerSize, headerSize, 0
	off := headerSize
	for i := src.Len(); i > 0; i-- {
		k := Key(binary.LittleEndian.Uint64(src.buf[off:]))
		if k > hi {
			break
		}
		off += encodedRecordSize(int(binary.LittleEndian.Uint16(src.buf[off+9:])))
		if k < lo {
			start = off
		} else {
			n, end = n+1, off
		}
	}
	b.Reset()
	binary.LittleEndian.PutUint16(b.buf[2:4], uint16(n))
	if n > 0 {
		b.buf = append(b.buf, src.buf[start:end]...)
	}
}

// Len returns the number of records stored in the block.
func (b *Block) Len() int {
	if len(b.buf) < headerSize {
		return 0
	}
	return int(binary.LittleEndian.Uint16(b.buf[2:4]))
}

// Encoded returns the block's bytes: the header and every record, without
// the zeroed tail Encode pads a device block with. Treat it as read-only.
func (b *Block) Encoded() []byte { return b.buf }

// MinKey returns the smallest key in the block. It panics on an empty
// block; empty blocks are never stored in a level.
func (b *Block) MinKey() Key {
	return Key(binary.LittleEndian.Uint64(b.buf[headerSize:]))
}

// MaxKey returns the largest key in the block.
func (b *Block) MaxKey() Key {
	var last Key
	c := b.Cursor()
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		last = r.Key
	}
	return last
}

// Find returns the record with the given key, if present. Its payload
// points into the block's bytes.
func (b *Block) Find(k Key) (Record, bool) {
	off := headerSize
	for i := b.Len(); i > 0; i-- {
		if rk := Key(binary.LittleEndian.Uint64(b.buf[off:])); rk >= k {
			if rk > k {
				break
			}
			c := Cursor{buf: b.buf, off: off, left: 1}
			return c.Next()
		}
		off += encodedRecordSize(int(binary.LittleEndian.Uint16(b.buf[off+9:])))
	}
	return Record{}, false
}

// Cursor returns a cursor positioned before the block's first record: the
// one way to walk a block's records, in key order.
func (b *Block) Cursor() Cursor {
	return Cursor{buf: b.buf, off: headerSize, left: b.Len()}
}

// Cursor walks a block's records in key order, reading each one out of the
// encoded bytes. A cursor over a block that is reused (refilled by a
// device read) must not be advanced after the refill.
type Cursor struct {
	buf  []byte
	off  int
	left int
}

// Next returns the next record, or false past the last one. The record's
// payload points into the block's bytes, clipped to its length, and is nil
// when empty.
func (c *Cursor) Next() (Record, bool) {
	if c.left == 0 {
		return Record{}, false
	}
	c.left--
	src := c.buf[c.off:]
	r := Record{
		Key:       Key(binary.LittleEndian.Uint64(src)),
		Tombstone: src[8]&flagTombstone != 0,
	}
	plen := int(binary.LittleEndian.Uint16(src[9:]))
	start := c.off + recordHeader
	if plen > 0 {
		r.Payload = c.buf[start : start+plen : start+plen]
	}
	c.off = start + plen
	return r, true
}

// EmptySlots returns the number of unused record slots given capacity b.
func (b *Block) EmptySlots(capacity int) int {
	return capacity - b.Len()
}

// Bytes returns the total request-byte footprint of the block's records.
func (b *Block) Bytes() int {
	n := 0
	c := b.Cursor()
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		n += r.Size()
	}
	return n
}

// Clone returns a copy of the block in memory of its own.
func (b *Block) Clone() *Block {
	return &Block{buf: bytes.Clone(b.buf)}
}
