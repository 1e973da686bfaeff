package bench

import (
	"syscall"
	"time"
)

// kernelSleep blocks the calling thread in the kernel for about d. The
// runtime's own sleep rounds a sub-millisecond wait up to its poller's
// millisecond when the process is idle.
func kernelSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return only makes the caller loop once more
}
