//go:build !linux

package resultcache

import "time"

// fdMtime reports no mtime outside Linux (fd is an int on other Unixes
// and a syscall.Handle on Windows), so every rw-mode hit there touches
// its entry.
func fdMtime[FD any](FD) time.Time { return time.Time{} }
