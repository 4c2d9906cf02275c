//go:build !linux

package main

import "time"

// sleeper is the open-loop dispatcher's clock; see sleep_linux.go.
type sleeper struct{}

func newSleeper() *sleeper { return &sleeper{} }

func (s *sleeper) sleep(d time.Duration) { time.Sleep(d) }

func (s *sleeper) close() {}
