//go:build linux

package wal

import (
	"os"
	"syscall"
)

// datasyncer makes a segment's written data durable with fdatasync(2): it
// flushes the data blocks and only the metadata needed to read them back (a
// grown file size, newly allocated blocks), never timestamps. Over the
// zero-filled tail of the active segment a commit extends nothing, so its
// fdatasync flushes data alone.
//
// The call runs inside the segment's RawConn.Control, which holds the
// descriptor for its duration: a concurrent Close waits, so the syscall can
// never reach a descriptor number the kernel has already handed to another
// file. Control fails only on a closed file, reported as os.ErrClosed like
// (*os.File).Sync does. The RawConn is cached when the segment opens, and
// the callback is bound once with the error slot it reports through, so a
// sync allocates nothing; one datasyncer therefore serves one caller at a
// time.
type datasyncer struct {
	call func(fd uintptr)
	err  error
}

func newDatasyncer() *datasyncer {
	d := &datasyncer{}
	d.call = func(fd uintptr) {
		for {
			if d.err = syscall.Fdatasync(int(fd)); d.err != syscall.EINTR {
				return
			}
		}
	}
	return d
}

// sync fdatasyncs f through rc, f's cached RawConn.
func (d *datasyncer) sync(f *os.File, rc syscall.RawConn) error {
	if err := rc.Control(d.call); err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: os.ErrClosed}
	}
	if d.err != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: d.err}
	}
	return nil
}
