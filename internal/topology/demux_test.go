package topology

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/in-net/innet/internal/symexec"
)

// seqDemux is the sequential demultiplexer the one-pass demux
// replaced, kept as the reference: each branch clones the running
// remainder, which then excludes the branch's address, and the
// pass-through branch gets what is left outside the pool.
type seqDemux struct {
	addrs    []uint64
	notPool  symexec.IntervalSet
	passPort int
	base     int
}

func (d *seqDemux) Sym(port int, s *symexec.State) []symexec.Transition {
	var out []symexec.Transition
	rest := s
	for i, a := range d.addrs {
		m := rest.Clone()
		if m.Constrain(symexec.FieldDstIP, symexec.Single(a)) {
			out = append(out, symexec.Transition{Port: d.base + i, S: m})
		}
		if !rest.Constrain(symexec.FieldDstIP, symexec.Single(a).Complement(32)) {
			return out
		}
	}
	if d.passPort >= 0 && rest.Constrain(symexec.FieldDstIP, d.notPool) {
		out = append(out, symexec.Transition{Port: d.passPort, S: rest})
	}
	return out
}

// demuxPool is the pool the differential inputs are drawn around.
const demuxPoolLo, demuxPoolHi = 0x0ac80100, 0x0ac8011f

// randomAddrs draws a sorted hosted-address list: duplicates, runs of
// adjacent addresses, addresses just outside the pool, or none.
func randomAddrs(rng *rand.Rand) []uint64 {
	n := rng.Intn(12)
	if rng.Intn(6) == 0 {
		n = 0
	}
	addrs := make([]uint64, 0, n)
	for len(addrs) < n {
		a := uint64(demuxPoolLo - 4 + rng.Intn(demuxPoolHi-demuxPoolLo+9))
		addrs = append(addrs, a)
		for rng.Intn(3) == 0 && len(addrs) < n { // a run: repeat or next
			a += uint64(rng.Intn(2))
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	return addrs
}

// randomDstState builds a state whose destination is a constant, a
// free variable, the source's variable (aliased), or a variable
// narrowed to a few intervals, with a path of a hop or two.
func randomDstState(rng *rand.Rand) *symexec.State {
	s := symexec.NewState()
	s.PushHop("r", rng.Intn(2))
	pick := func() uint64 { return uint64(demuxPoolLo - 6 + rng.Intn(demuxPoolHi-demuxPoolLo+13)) }
	switch rng.Intn(4) {
	case 0:
		s.Assign(symexec.FieldDstIP, symexec.Const(pick()))
	case 1: // free
	case 2:
		s.Assign(symexec.FieldDstIP, s.Get(symexec.FieldSrcIP))
		if rng.Intn(2) == 0 {
			lo := pick()
			s.Constrain(symexec.FieldSrcIP, symexec.Span(lo, lo+uint64(rng.Intn(16))))
		}
	case 3:
		set := symexec.Empty
		for i := 0; i <= rng.Intn(3); i++ {
			lo := pick()
			set = set.Union(symexec.Span(lo, lo+uint64(rng.Intn(6))))
		}
		s.Constrain(symexec.FieldDstIP, set)
	}
	if rng.Intn(2) == 0 {
		s.PushHop("p", 0)
	}
	return s
}

// demuxFields are the fields whose values the differential compares.
var demuxFields = []symexec.Field{
	symexec.FieldSrcIP, symexec.FieldDstIP, symexec.FieldProto,
	symexec.FieldSrcPort, symexec.FieldDstPort, symexec.FieldTTL,
	symexec.FieldTOS, symexec.FieldPayload,
}

// FuzzDemuxMatchesSequential checks the one-pass demux against the
// sequential reference: the same branch ports in the same order, and
// on every output state the same values for every field and the same
// path.
func FuzzDemuxMatchesSequential(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	notPool := symexec.Span(demuxPoolLo, demuxPoolHi).Complement(32)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		addrs := randomAddrs(rng)
		passPort := rng.Intn(2) - 1 // -1: no pass-through port
		ref := &seqDemux{addrs: addrs, notPool: notPool, passPort: passPort, base: 1}
		one := newDemux(slices.Clone(addrs), notPool, passPort, 1)
		s := randomDstState(rng)
		want := ref.Sym(0, s.Clone())
		got := one.Sym(0, s)
		if len(got) != len(want) {
			t.Fatalf("addrs %v, dst %v: %d branches, want %d", addrs, s.Values(symexec.FieldDstIP), len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Port != w.Port {
				t.Fatalf("addrs %v: branch %d port %d, want %d", addrs, i, g.Port, w.Port)
			}
			for _, fl := range demuxFields {
				if gv, wv := g.S.Values(fl), w.S.Values(fl); !gv.Equal(wv) {
					t.Fatalf("addrs %v: branch %d (port %d) %s = %v, want %v", addrs, i, g.Port, fl, gv, wv)
				}
			}
			if gp, wp := g.S.Path(), w.S.Path(); !slices.Equal(gp, wp) {
				t.Fatalf("addrs %v: branch %d path %v, want %v", addrs, i, gp, wp)
			}
		}
	})
}

// A state with an unconstrained destination arriving at a full
// platform takes one branch per hosted address, and the pass-through.
// The one-pass demux pays for each branch's state and its constraint
// table, and for nothing else per address: at most two allocations a
// branch plus a constant.
func TestDemuxAllocsPerBranch(t *testing.T) {
	const hosted = 254
	addrs := make([]uint64, hosted)
	for i := range addrs {
		addrs[i] = demuxPoolLo + 1 + uint64(i)
	}
	notPool := symexec.Span(demuxPoolLo, demuxPoolLo+0xff).Complement(32)
	d := newDemux(addrs, notPool, 0, 1)
	fresh := testing.AllocsPerRun(20, func() { symexec.NewState() })
	got := testing.AllocsPerRun(20, func() {
		if n := len(d.Sym(0, symexec.NewState())); n != hosted+1 {
			t.Fatalf("%d branches, want %d and the pass-through", n, hosted)
		}
	}) - fresh
	t.Logf("demux of %d hosted addresses: %.0f allocations", hosted, got)
	if limit := float64(2*hosted + 16); got > limit {
		t.Fatalf("demux of %d hosted addresses: %.0f allocations, want at most %.0f", hosted, got, limit)
	}
}
