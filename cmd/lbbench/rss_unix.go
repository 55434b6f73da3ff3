//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMB returns the process's peak resident set size in MiB, the
// high-water memory mark the scaling sweep records per row. Getrusage
// reports Maxrss in KiB on Linux and bytes on Darwin.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024
}
