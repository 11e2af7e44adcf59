// Package stripe spreads counters that many goroutines bump over padded
// cells, so a hot read path writes no cache line another reader writes.
//
// A goroutine picks its cell from the address of a variable on its own
// stack (Index): the same goroutine calling from the same place lands on
// the same cell every time, and two goroutines share a cell only when their
// stack addresses hash alike, one pair in Cells. The index is only a hint —
// a moved stack or a collision costs a shared cache line, never a count.
// A value is the sum of the cells, read without a lock.
package stripe

import (
	"sync/atomic"
	"unsafe"
)

// Cells is the number of cells per Counter, 1<<bits.
const (
	bits  = 4
	Cells = 1 << bits
)

// lineBytes is the cache-line size the cells are padded to.
const lineBytes = 64

// Index returns the calling goroutine's cell, in [0, Cells). Goroutine
// stacks are at least a few KiB apart, so the address is hashed as a
// whole (Fibonacci hashing) and the top bits kept.
func Index() int {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe))) * 0x9E3779B97F4A7C15
	return int(h >> (64 - bits))
}

// cell is one padded counter.
type cell struct {
	n atomic.Int64
	_ [lineBytes - 8]byte
}

// Counter is a striped int64 counter. The zero value is 0. The leading pad
// keeps cell 0 off the cache line of whatever field precedes the counter.
type Counter struct {
	_     [lineBytes]byte
	cells [Cells]cell
}

// Add adds d to the calling goroutine's cell.
func (c *Counter) Add(d int64) { c.cells[Index()].n.Add(d) }

// Load returns the sum of the cells. Concurrent Adds may or may not be
// included; a counter that only grows never reads lower than an earlier
// Load.
func (c *Counter) Load() int64 {
	var n int64
	for i := range c.cells {
		n += c.cells[i].n.Load()
	}
	return n
}
