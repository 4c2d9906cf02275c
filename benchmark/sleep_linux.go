//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Go's own timers wake an idle process at best once a millisecond on
// Linux (an idle P waits in epoll with a millisecond timeout), which is
// forty times the latency this benchmark measures. A timerfd read
// through the runtime's poller wakes when the descriptor fires instead,
// and unlike nanosleep(2) it parks the goroutine without tying up a P.

// sleeper is the open-loop dispatcher's clock.
type sleeper struct {
	f  *os.File // nil: fall back to time.Sleep
	fd uintptr  // f's descriptor (File.Fd would switch it to blocking mode)
}

type itimerspec struct {
	Interval syscall.Timespec
	Value    syscall.Timespec
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newSleeper() *sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &sleeper{}
	}
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// sleep blocks for about d; it may return early, callers loop on the
// clock.
func (s *sleeper) sleep(d time.Duration) {
	if s.f != nil {
		its := itimerspec{Value: syscall.NsecToTimespec(int64(d))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			if _, err := s.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(d)
}

func (s *sleeper) close() {
	if s.f != nil {
		s.f.Close()
	}
}
