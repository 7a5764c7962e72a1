package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of an ascending
// sample by linear interpolation between the two nearest ranks.
// Interpolating keeps a reported time from landing on the same sample
// value run after run when the clock is coarse.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the 0.5-quantile of xs (0 when empty).
func median(xs []float64) float64 { return quantileSorted(sortedCopy(xs), 0.5) }

// tailSteps are the percentiles a timing may be reported at besides
// the median, lowest first, each with the share of samples beyond it
// as "one in N" (integers, so the ten-sample rule is exact).
var tailSteps = []struct {
	q     float64
	oneIn int
}{{0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// highestPercentile picks the highest entry of tailSteps that still
// has at least ten samples beyond it in a sample of n, the rule the
// report uses for "how far into the tail can this run see". ok is
// false when even p90 has fewer than ten samples beyond it.
func highestPercentile(n int) (q float64, ok bool) {
	for i := len(tailSteps) - 1; i >= 0; i-- {
		if n >= 10*tailSteps[i].oneIn {
			return tailSteps[i].q, true
		}
	}
	return 0, false
}

// sliceSeconds is the length of one measurement slice. A run is cut
// into slices so that a stretch of interference from the host (another
// tenant of the machine, a stalled disk) spoils some slices instead of
// shifting the whole run.
const sliceSeconds = 0.5

// sliceCount is the number of slices a window of the given length is
// cut into (at least one).
func sliceCount(seconds float64) int {
	n := int(math.Round(seconds / sliceSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// fastShare is how far in from the fast end the slices of a run are
// read: the fast-side decile.
const fastShare = 0.1

// fastSide reduces per-slice values to one number: the 90th percentile
// of the slices of a rate, the 10th percentile of the slices of a
// latency. Interference from outside the program (a neighbour on the
// host, whose effect on the reference host lasts from a fraction of a
// second to tens of seconds) only ever slows a slice down, so a
// quantile near the fast end estimates what the program does when left
// alone; a median of slices follows the interference instead. Unlike a
// maximum it needs a tenth of the slices to agree. Anything the program
// does to itself within one slice (GC cycles, journal compaction) is
// inside every slice and therefore in the result.
func fastSide(perSlice []float64, higherIsBetter bool) float64 {
	q := fastShare
	if higherIsBetter {
		q = 1 - fastShare
	}
	return quantileSorted(sortedCopy(perSlice), q)
}

// quartileSpread is the acceptance statistic of the contract: the
// distance between the first and third quartile as a share of the
// median, with the quartiles computed like Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	q := func(k int) float64 {
		// exclusive method: position k*(n+1)/4, 1-based, clamped.
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	if len(s) < 2 {
		return 0
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// nsTo converts nanosecond samples to another unit for reporting.
func nsTo[T int64 | uint32](xs []T, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / div
	}
	return out
}

// joinF formats a series for a note line.
func joinF(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
