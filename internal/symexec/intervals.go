// Package symexec is the symbolic execution engine at the heart of
// the In-Net controller — the role SymNet plays in the paper (§3,
// §4.3). It executes abstract models of network elements over
// symbolic packets: each header field is bound to an expression
// (constant or variable), variables carry interval-set constraints,
// and element models split flows when processing branches.
//
// The models obey the paper's tractability rules: no loops, no
// dynamic memory allocation, and middlebox state is pushed into the
// flow itself (synthetic fields such as the stateful-firewall tag of
// Fig. 2), so verification cost grows linearly with path length.
package symexec

import (
	"fmt"
	"slices"
	"strings"
)

// Interval is an inclusive [Lo, Hi] range of uint64 values.
type Interval struct {
	Lo, Hi uint64
}

// IntervalSet is an immutable, sorted, disjoint set of intervals. The
// zero value is the empty set. Operations never modify their operands;
// a result equal to an operand may share its storage.
type IntervalSet struct {
	iv []Interval
}

// Empty is the empty interval set.
var Empty = IntervalSet{}

// Single returns the set {v}.
func Single(v uint64) IntervalSet { return Span(v, v) }

// Span returns the set [lo, hi]; an inverted span is empty.
func Span(lo, hi uint64) IntervalSet {
	if lo > hi {
		return Empty
	}
	return IntervalSet{iv: []Interval{{lo, hi}}}
}

// Full returns the complete set for a field of the given bit width.
// The widths of the standard fields return one shared set each: sets
// are immutable, so a fresh symbolic packet allocates none.
func Full(bits int) IntervalSet {
	switch bits {
	case 8:
		return full8
	case 16:
		return full16
	case 32:
		return full32
	case 64:
		return full64
	}
	return Span(0, maxFor(bits))
}

var (
	full8  = Span(0, maxFor(8))
	full16 = Span(0, maxFor(16))
	full32 = Span(0, maxFor(32))
	full64 = Span(0, maxFor(64))
)

func maxFor(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// FromIntervals builds a normalized set from arbitrary intervals.
func FromIntervals(ivs ...Interval) IntervalSet {
	s := Empty
	for _, iv := range ivs {
		s = s.Union(Span(iv.Lo, iv.Hi))
	}
	return s
}

// IsEmpty reports whether the set has no values.
func (s IntervalSet) IsEmpty() bool { return len(s.iv) == 0 }

// IsSingle reports whether the set holds exactly one value, and
// returns it.
func (s IntervalSet) IsSingle() (uint64, bool) {
	if len(s.iv) == 1 && s.iv[0].Lo == s.iv[0].Hi {
		return s.iv[0].Lo, true
	}
	return 0, false
}

// Contains reports whether v is in the set.
func (s IntervalSet) Contains(v uint64) bool {
	for _, iv := range s.iv {
		if v >= iv.Lo && v <= iv.Hi {
			return true
		}
		if v < iv.Lo {
			return false
		}
	}
	return false
}

// Count returns the number of values in the set, saturating at
// MaxUint64.
func (s IntervalSet) Count() uint64 {
	var n uint64
	for _, iv := range s.iv {
		d := iv.Hi - iv.Lo
		if d == ^uint64(0) {
			return ^uint64(0)
		}
		d++
		if n+d < n {
			return ^uint64(0)
		}
		n += d
	}
	return n
}

// Min returns the smallest value; ok is false for the empty set.
func (s IntervalSet) Min() (uint64, bool) {
	if len(s.iv) == 0 {
		return 0, false
	}
	return s.iv[0].Lo, true
}

// Intersect returns s ∩ t. It allocates at most once: a first pass
// sizes the result, and when the result is one of the operands (one is
// a subset of the other) that operand is returned as is — sets are
// immutable, so sharing is safe.
func (s IntervalSet) Intersect(t IntervalSet) IntervalSet {
	n, isS, isT := s.meet(t)
	switch {
	case n == 0:
		return Empty
	case isS:
		return s
	case isT:
		return t
	}
	out := make([]Interval, 0, n)
	i, j := 0, 0
	for i < len(s.iv) && j < len(t.iv) {
		a, b := s.iv[i], t.iv[j]
		lo := max64(a.Lo, b.Lo)
		hi := min64(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, Interval{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return IntervalSet{iv: out}
}

// meet walks s ∩ t without building it: n is the number of intervals
// in the result, and isS (isT) reports whether the result equals s (t).
func (s IntervalSet) meet(t IntervalSet) (n int, isS, isT bool) {
	isS, isT = true, true
	i, j := 0, 0
	for i < len(s.iv) && j < len(t.iv) {
		a, b := s.iv[i], t.iv[j]
		lo := max64(a.Lo, b.Lo)
		hi := min64(a.Hi, b.Hi)
		if lo <= hi {
			r := Interval{lo, hi}
			isS = isS && n < len(s.iv) && s.iv[n] == r
			isT = isT && n < len(t.iv) && t.iv[n] == r
			n++
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return n, isS && n == len(s.iv), isT && n == len(t.iv)
}

// Union returns s ∪ t.
func (s IntervalSet) Union(t IntervalSet) IntervalSet {
	if len(t.iv) == 0 {
		return s
	}
	if len(s.iv) == 0 {
		return t
	}
	merged := make([]Interval, 0, len(s.iv)+len(t.iv))
	i, j := 0, 0
	for i < len(s.iv) || j < len(t.iv) {
		var next Interval
		if j >= len(t.iv) || (i < len(s.iv) && s.iv[i].Lo <= t.iv[j].Lo) {
			next = s.iv[i]
			i++
		} else {
			next = t.iv[j]
			j++
		}
		if n := len(merged); n > 0 && (next.Lo <= merged[n-1].Hi ||
			(merged[n-1].Hi != ^uint64(0) && next.Lo == merged[n-1].Hi+1)) {
			if next.Hi > merged[n-1].Hi {
				merged[n-1].Hi = next.Hi
			}
		} else {
			merged = append(merged, next)
		}
	}
	return IntervalSet{iv: merged}
}

// Complement returns the complement of s within a field of the given
// bit width.
func (s IntervalSet) Complement(bits int) IntervalSet {
	maxV := maxFor(bits)
	out := make([]Interval, 0, len(s.iv)+1)
	next := uint64(0)
	for _, iv := range s.iv {
		if iv.Lo > maxV {
			break
		}
		if iv.Lo > next {
			out = append(out, Interval{next, iv.Lo - 1})
		}
		if iv.Hi >= maxV {
			return setOf(out)
		}
		next = iv.Hi + 1
	}
	if next <= maxV {
		out = append(out, Interval{next, maxV})
	}
	return setOf(out)
}

// setOf wraps normalized intervals, mapping none to Empty.
func setOf(ivs []Interval) IntervalSet {
	if len(ivs) == 0 {
		return Empty
	}
	return IntervalSet{iv: ivs}
}

// FromValues returns the set of the given values, in one pass when
// they are sorted ascending (duplicates allowed); unsorted input is
// sorted on a copy first.
func FromValues(vs []uint64) IntervalSet {
	if !slices.IsSorted(vs) {
		vs = slices.Clone(vs)
		slices.Sort(vs)
	}
	// starts reports whether vs[i] opens a new interval: it is neither
	// a repeat of vs[i-1] nor adjacent to it.
	starts := func(i int) bool {
		return i == 0 || (vs[i-1] != ^uint64(0) && vs[i] > vs[i-1]+1)
	}
	n := 0
	for i := range vs {
		if starts(i) {
			n++
		}
	}
	out := make([]Interval, 0, n)
	for i, v := range vs {
		if starts(i) {
			out = append(out, Interval{v, v})
		} else {
			out[len(out)-1].Hi = v
		}
	}
	return setOf(out)
}

// Singles returns {vs[0]}, {vs[1]}, ...: the sets share one backing
// array, so the whole slice costs two allocations.
func Singles(vs []uint64) []IntervalSet {
	ivs := make([]Interval, len(vs))
	out := make([]IntervalSet, len(vs))
	for i, v := range vs {
		ivs[i] = Interval{v, v}
		out[i] = IntervalSet{iv: ivs[i : i+1 : i+1]}
	}
	return out
}

// Cursor tests ascending values for membership in a set with one
// forward walk over its intervals: n queries cost O(n + intervals).
type Cursor struct {
	s IntervalSet
	k int
}

// Cursor returns a membership cursor at the start of s.
func (s IntervalSet) Cursor() Cursor { return Cursor{s: s} }

// Contains reports whether v is in the set. Each v must be at least
// the one before it.
func (c *Cursor) Contains(v uint64) bool {
	for c.k < len(c.s.iv) && c.s.iv[c.k].Hi < v {
		c.k++
	}
	return c.k < len(c.s.iv) && c.s.iv[c.k].Lo <= v
}

// Minus returns s \ t within the given bit width.
func (s IntervalSet) Minus(t IntervalSet, bits int) IntervalSet {
	return s.Intersect(t.Complement(bits))
}

// SubsetOf reports whether every value of s is in t.
func (s IntervalSet) SubsetOf(t IntervalSet) bool {
	_, isS, _ := s.meet(t)
	return isS
}

// Overlaps reports whether s ∩ t is non-empty.
func (s IntervalSet) Overlaps(t IntervalSet) bool {
	n, _, _ := s.meet(t)
	return n > 0
}

// Equal reports set equality.
func (s IntervalSet) Equal(t IntervalSet) bool {
	if len(s.iv) != len(t.iv) {
		return false
	}
	for i := range s.iv {
		if s.iv[i] != t.iv[i] {
			return false
		}
	}
	return true
}

// Intervals returns a copy of the underlying intervals.
func (s IntervalSet) Intervals() []Interval {
	return append([]Interval(nil), s.iv...)
}

func (s IntervalSet) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(s.iv))
	for i, iv := range s.iv {
		if iv.Lo == iv.Hi {
			parts[i] = fmt.Sprintf("%d", iv.Lo)
		} else {
			parts[i] = fmt.Sprintf("%d-%d", iv.Lo, iv.Hi)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
