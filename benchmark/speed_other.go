//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadCPU falls back to wall time where the thread's CPU clock is not
// read: a reading then also counts time the thread was descheduled.
func threadCPU() time.Duration { return time.Since(processStart) }
