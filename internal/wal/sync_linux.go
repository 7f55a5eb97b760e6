//go:build linux

package wal

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data (and any metadata needed to find it, such as
// the file size) without forcing an mtime/atime inode write the way a
// full fsync does. On a preallocated, O_APPEND-grown segment that shaves
// a journal commit off every group commit.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}

// drainOS flushes all dirty pages system-wide. Benchmarks call it before
// resetting the timer so one benchmark's writeback debt does not land on
// the next one's fsyncs.
func drainOS() { syscall.Sync() }
