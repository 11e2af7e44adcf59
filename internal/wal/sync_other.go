//go:build !linux

package wal

import "os"

// datasync makes f's written data durable. Outside Linux it is a full
// fsync ((*os.File).Sync).
func datasync(f *os.File) error { return f.Sync() }
