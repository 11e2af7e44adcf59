//go:build !linux

package wal

import (
	"os"
	"syscall"
)

// datasyncer makes a segment's written data durable. Outside Linux it is a
// full fsync ((*os.File).Sync), and the cached RawConn goes unused.
type datasyncer struct{}

func newDatasyncer() *datasyncer { return &datasyncer{} }

// sync fsyncs f.
func (*datasyncer) sync(f *os.File, _ syscall.RawConn) error { return f.Sync() }
