//go:build !unix

package main

// peakRSSMB reports 0 where getrusage is unavailable; the mem columns of
// the sweep are best-effort telemetry, not part of any correctness path.
func peakRSSMB() float64 { return 0 }
