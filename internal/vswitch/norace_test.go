//go:build !race

package vswitch

const raceEnabled = false
