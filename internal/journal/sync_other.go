//go:build !linux

package journal

import "os"

// preallocate does nothing where the journal has no fallocate to call:
// the log grows with every append, as it always did.
func preallocate(*os.File, int64, int64) error { return nil }

// datasync is a full fsync here; only Linux's commit is cheaper.
func datasync(f *os.File) error { return f.Sync() }
