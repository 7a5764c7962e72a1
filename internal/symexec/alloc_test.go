package symexec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// bitmap is the reference model of an 8-bit interval set.
type bitmap [256]bool

func bitmapOf(s IntervalSet) bitmap {
	var b bitmap
	for v := range b {
		b[v] = s.Contains(uint64(v))
	}
	return b
}

// normalized reports whether s is in canonical form: intervals
// non-inverted, sorted, and neither overlapping nor adjacent.
func normalized(s IntervalSet) error {
	for i, iv := range s.iv {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("inverted interval %v", iv)
		}
		if i > 0 && iv.Lo <= s.iv[i-1].Hi+1 {
			return fmt.Errorf("intervals %v and %v overlap or touch", s.iv[i-1], iv)
		}
	}
	return nil
}

// randValues draws up to 24 sorted values in [0, 255], with repeats
// and runs of adjacent values.
func randValues(r *rand.Rand) []uint64 {
	var vs []uint64
	v := uint64(r.Intn(64))
	for i, n := 0, r.Intn(24); i < n && v < 256; i++ {
		vs = append(vs, v)
		v += uint64(r.Intn(3)) * uint64(1+r.Intn(2)*r.Intn(40))
	}
	return vs
}

// TestIntervalOpsMatchBitmap checks Intersect, Union, Complement,
// Minus, SubsetOf, Overlaps and FromValues against a bitmap at 8-bit
// width, and that every result is normalized.
func TestIntervalOpsMatchBitmap(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		_ = seed
		a, b := randSet(r), randSet(r)
		if r.Intn(3) == 0 {
			vs := randValues(r)
			b = FromValues(vs)
			var want bitmap
			for _, v := range vs {
				want[v] = true
			}
			if bitmapOf(b) != want {
				t.Errorf("FromValues(%v) = %v", vs, b)
				return false
			}
		}
		ma, mb := bitmapOf(a), bitmapOf(b)
		var and, or, notA, minus bitmap
		subset, overlaps := true, false
		for v := range ma {
			and[v] = ma[v] && mb[v]
			or[v] = ma[v] || mb[v]
			notA[v] = !ma[v]
			minus[v] = ma[v] && !mb[v]
			subset = subset && (!ma[v] || mb[v])
			overlaps = overlaps || and[v]
		}
		for _, c := range []struct {
			op   string
			got  IntervalSet
			want bitmap
		}{
			{"Intersect", a.Intersect(b), and},
			{"Union", a.Union(b), or},
			{"Complement", a.Complement(8), notA},
			{"Minus", a.Minus(b, 8), minus},
			{"FromValues", b, mb},
		} {
			if err := normalized(c.got); err != nil {
				t.Errorf("%s(%v, %v) = %v: %v", c.op, a, b, c.got, err)
				return false
			}
			if bitmapOf(c.got) != c.want {
				t.Errorf("%s(%v, %v) = %v: wrong members", c.op, a, b, c.got)
				return false
			}
		}
		if a.SubsetOf(b) != subset || a.Overlaps(b) != overlaps {
			t.Errorf("%v vs %v: SubsetOf %t Overlaps %t, want %t %t", a, b, a.SubsetOf(b), a.Overlaps(b), subset, overlaps)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Intersect allocates at most once, and not at all when its result is
// an operand or empty.
func TestIntersectAllocs(t *testing.T) {
	full := Full(32)
	narrow := FromIntervals(Interval{10, 20}, Interval{40, 50})
	other := FromIntervals(Interval{15, 45})
	for _, c := range []struct {
		name string
		a, b IntervalSet
		max  float64
	}{
		{"subset", narrow, full, 0},
		{"superset", full, narrow, 0},
		{"disjoint", Span(0, 5), Span(7, 9), 0},
		{"partial", narrow, other, 1},
	} {
		if got := testing.AllocsPerRun(50, func() { c.a.Intersect(c.b) }); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}

// TestCloneAliasingQuick interleaves random writes on a state, its
// clones and clones of those clones (which share their tables
// copy-on-write), and checks after every write that no other state
// sees it.
func TestCloneAliasingQuick(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	fields := []Field{FieldSrcIP, FieldDstIP, FieldProto, FieldDstPort, FieldFWTag, FieldPaint}
	f := func(seed int64) bool {
		_ = seed
		states := []*State{NewState()}
		seen := []string{states[0].String()}
		for op := 0; op < 40; op++ {
			k := r.Intn(len(states))
			s := states[k]
			fl := fields[r.Intn(len(fields))]
			switch r.Intn(8) {
			case 0, 1:
				states = append(states, s.Clone())
				seen = append(seen, s.String())
				continue
			case 2:
				s.Assign(fl, Const(uint64(r.Intn(200))))
			case 3:
				lo := uint64(r.Intn(150))
				s.Constrain(fl, Span(lo, lo+uint64(r.Intn(80))))
			case 4:
				s.AssignFresh(fl)
			case 5: // aliasing: a later constraint narrows both fields
				s.Assign(fl, s.Get(FieldSrcIP))
			case 6:
				s.Get(fl) // may materialize a lazy synthetic field
			case 7:
				s.PushHop(string(fl), r.Intn(3))
			}
			seen[k] = s.String()
			for i, o := range states {
				if got := o.String(); got != seen[i] {
					t.Errorf("op %d wrote state %d and changed state %d:\n got %s\nwant %s", op, k, i, got, seen[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
