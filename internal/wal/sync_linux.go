//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasync makes f's written data durable with fdatasync(2): it flushes the
// data blocks and only the metadata needed to read them back (a grown file
// size, newly allocated blocks), never timestamps. Over the zero-filled
// tail of the active segment a commit extends nothing, so its fdatasync
// flushes data alone.
//
// The call runs inside (*os.File).SyscallConn().Control, which holds the
// descriptor for its duration: a concurrent Close waits, so the syscall can
// never reach a descriptor number the kernel has already handed to another
// file. Control fails only on a closed file, reported as os.ErrClosed like
// (*os.File).Sync does.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: os.ErrClosed}
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
