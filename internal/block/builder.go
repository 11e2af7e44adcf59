package block

// Builder packs a key-ordered stream of records into blocks of at most
// capacity records each, encoding each record into the pending block as it
// arrives. Compactions and run builds feed records through a Builder and
// collect the finished blocks.
type Builder struct {
	capacity int
	cur      Block // the pending block, reused across flushes
	out      []*Block
}

// NewBuilder returns a builder producing blocks of the given capacity.
func NewBuilder(capacity int) *Builder {
	if capacity < 1 {
		panic("block: builder capacity must be >= 1")
	}
	return &Builder{capacity: capacity}
}

// Add appends a record, flushing a full block when the buffer reaches
// capacity. Keys must arrive in strictly increasing order. The record's
// payload is copied.
func (bb *Builder) Add(r Record) {
	if bb.cur.buf == nil {
		// Size the pending block once, for capacity records like the
		// first (up to 64 KiB), instead of growing it record by record.
		bb.cur.buf = make([]byte, 0, min(headerSize+bb.capacity*encodedRecordSize(len(r.Payload)), 64<<10))
	}
	bb.cur.Append(r)
	if bb.cur.Len() == bb.capacity {
		bb.flush()
	}
}

// Finish flushes any remaining records into a last, possibly non-full
// block and returns the finished blocks. The builder must not be reused
// afterwards.
func (bb *Builder) Finish() []*Block {
	if bb.cur.Len() > 0 {
		bb.flush()
	}
	return bb.out
}

// flush hands the pending block's memory to the finished block; the next
// Add sizes a fresh one.
func (bb *Builder) flush() {
	bb.out = append(bb.out, &Block{buf: bb.cur.buf})
	bb.cur.buf = nil
}
