package resultcache

import (
	"syscall"
	"time"
)

// fdMtime is the modification time of the open file fd, from fstat; zero
// if fstat fails.
func fdMtime(fd int) time.Time {
	var st syscall.Stat_t
	if syscall.Fstat(fd, &st) != nil {
		return time.Time{}
	}
	return time.Unix(st.Mtim.Unix())
}
