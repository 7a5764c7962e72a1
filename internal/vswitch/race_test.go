//go:build race

package vswitch

// raceEnabled: under the race detector sync.Pool drops a share of Puts
// on purpose, so allocation counts through the pool are not exact.
const raceEnabled = true
