package journal

import (
	"os"
	"syscall"
)

// Both calls go to f's descriptor directly, so the caller must hold
// what keeps Close away from f: j.mu or j.syncMu. EINTR is retried,
// as os.File's own methods do.

// preallocate reserves [off, off+n) of f as unwritten extents and
// extends the file's size to off+n, so that appends inside the range
// change no inode size and datasync has no filesystem-journal commit
// to wait for. The range reads back as zeros.
func preallocate(f *os.File, off, n int64) error {
	for {
		if err := syscall.Fallocate(int(f.Fd()), 0, off, n); err != syscall.EINTR {
			return os.NewSyscallError("fallocate", err)
		}
	}
}

// datasync is the commit: fdatasync flushes the data and the metadata
// needed to read it back (a size change, an unwritten-to-written
// extent conversion) but not the timestamps, which is all an append
// inside a preallocated range dirties besides its data.
func datasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
