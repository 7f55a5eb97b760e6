//go:build !linux

package wal

import "os"

// fdatasync falls back to a full fsync where the data-only variant is
// not portable.
func fdatasync(f *os.File) error { return f.Sync() }

// drainOS is a no-op off Linux; benchmarks there absorb writeback skew.
func drainOS() {}

// syncfs is unavailable; SyncPool degrades to per-file fdatasync.
const hasSyncfs = false

func syncfs(fd uintptr) error { return nil }
