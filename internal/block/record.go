// Package block defines index records and fixed-capacity data blocks, the
// unit of storage and of write-cost accounting throughout the LSM-tree.
//
// A block holds at most B records in key order, where B (the block
// capacity) is a property of the tree configuration, not of the block
// itself: it is derived from the storage block size and the record size.
// Blocks are immutable once written to a storage device; merges always
// produce freshly built blocks (or reuse existing ones unmodified, which is
// the block-preserving optimization of Thonangi & Yang, Section II-B).
package block

import "fmt"

// Key is an index key. The paper draws 4-byte unsigned keys from [0, 1e9];
// we widen to 64 bits so that composite keys (e.g. the TPC workload's
// warehouse/district/order encoding) fit without loss.
type Key uint64

// Record is a single index entry. A record either carries a payload
// (an insert/update record) or is a tombstone (a logged delete request
// that cancels out matching records in lower levels during merges).
type Record struct {
	Key       Key
	Payload   []byte
	Tombstone bool
}

// Size returns the number of bytes this record accounts for when measuring
// "1MB worth of requests": the key plus the payload.
func (r Record) Size() int {
	return 8 + len(r.Payload)
}

// Op is one modification request: an upsert of Value under Key, or a
// delete of Key when Delete is set. It is the write path's single op
// record — a WriteBatch stages it, the write-ahead log encodes it into a
// frame and decodes it on replay, and the tree applies it — so a request
// crosses those layers without being converted or copied. Key is the plain
// integer the public API and the log's wire format carry; the tree reads
// it as Key(op.Key).
type Op struct {
	Key    uint64
	Value  []byte
	Delete bool
}

func (r Record) String() string {
	if r.Tombstone {
		return fmt.Sprintf("del(%d)", r.Key)
	}
	return fmt.Sprintf("put(%d,%dB)", r.Key, len(r.Payload))
}

// RecordSize returns the request-byte footprint of a record with the
// given payload length — 8-byte key, 1-byte flags, and the payload — the
// unit behind the paper's "per MB of requests" accounting. The encoded
// form is two bytes longer (see encodedRecordSize).
func RecordSize(payloadLen int) int {
	return 8 + 1 + payloadLen
}

// encodedRecordSize is the number of bytes Encode writes for one record:
// RecordSize plus the uint16 payload-length prefix.
func encodedRecordSize(payloadLen int) int {
	return RecordSize(payloadLen) + 2
}

// MinSizeFor returns the smallest storage block size that holds one encoded
// record of the given payload length after the block header — below it,
// CapacityFor's floor of 1 promises a block the device cannot store.
func MinSizeFor(payloadLen int) int {
	return headerSize + encodedRecordSize(payloadLen)
}

// CapacityFor returns the block capacity B for the given storage block size
// and payload length: the number of encoded records that fit in one block
// after the block header. It is at least 1 (a block can always hold one
// record, as in the paper's 4000-byte-payload extreme where B = 1).
func CapacityFor(blockSize, payloadLen int) int {
	b := (blockSize - headerSize) / encodedRecordSize(payloadLen)
	if b < 1 {
		b = 1
	}
	return b
}
