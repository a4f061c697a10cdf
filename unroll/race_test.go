//go:build race

package unroll_test

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random by design, so tests that pin a pooled zero-allocation
// steady state skip only that assertion under it.
const raceEnabled = true
