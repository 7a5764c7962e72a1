package dataplane

import (
	"testing"

	_ "github.com/in-net/innet/internal/elements"
)

const plainChain = `
in :: FromNetfront();
f :: IPFilter(allow udp);
crc :: SetCRC32();
mir :: IPMirror();
out :: ToNetfront();
in -> f -> crc -> mir -> out;
`

const sandboxedChain = `
in :: FromNetfront();
f :: IPFilter(allow udp);
crc :: SetCRC32();
mir :: IPMirror();
ce :: ChangeEnforcer();
out :: ToNetfront();
in -> [0]ce;
ce[0] -> f;
f -> crc -> mir -> [1]ce;
ce[1] -> out;
`

func TestMeasureCountsAndRates(t *testing.T) {
	r, err := NewRunnerString(plainChain)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Measure(UDPTemplate(128), 10000)
	if res.Transmitted != 10000 {
		t.Errorf("transmitted = %d", res.Transmitted)
	}
	if res.PPS <= 0 || res.NsPerPacket <= 0 {
		t.Errorf("rates: %+v", res)
	}
}

func TestSandboxCostsMore(t *testing.T) {
	plain, err := NewRunnerString(plainChain)
	if err != nil {
		t.Fatal(err)
	}
	sandboxed, err := NewRunnerString(sandboxedChain)
	if err != nil {
		t.Fatal(err)
	}
	// The chain mirrors replies to the sender, so the enforcer's
	// implicit authorization passes them.
	// Best of 21 short interleaved runs per arm: other packages' tests
	// may load the CPUs, and a few samples per arm can all land in
	// bursts of load.
	p := UDPTemplate(64)
	best := MeasureBest(p, 10000, 21, plain, sandboxed)
	a, b := best[0], best[1]
	if b.Transmitted != 10000 {
		t.Fatalf("enforcer blocked traffic: transmitted = %d", b.Transmitted)
	}
	if b.NsPerPacket <= a.NsPerPacket*0.9 {
		t.Errorf("sandboxed path not slower: %.1f vs %.1f ns/pkt", b.NsPerPacket, a.NsPerPacket)
	}
}

func TestLineRateCap(t *testing.T) {
	// 1472 B at 10 GbE is ~836 kpps.
	lr := LineRatePPS(1472, 10e9)
	if lr < 800_000 || lr > 900_000 {
		t.Errorf("line rate for 1472B = %.0f", lr)
	}
	// 64 B is ~14.2 Mpps.
	lr64 := LineRatePPS(64, 10e9)
	if lr64 < 13e6 || lr64 > 15e6 {
		t.Errorf("line rate for 64B = %.0f", lr64)
	}
	if got := CapPPS(1e9, 64, 10e9); got != lr64 {
		t.Errorf("CapPPS above cap = %f", got)
	}
	if got := CapPPS(1000, 64, 10e9); got != 1000 {
		t.Errorf("CapPPS below cap = %f", got)
	}
}

func TestUDPTemplateSizes(t *testing.T) {
	for _, size := range []int{64, 128, 1472} {
		p := UDPTemplate(size)
		if p.Len() != size {
			t.Errorf("template %d -> %d", size, p.Len())
		}
	}
	if UDPTemplate(10).Len() != 28 {
		t.Error("sub-minimum template should clamp")
	}
}

func TestHotPathZeroAllocations(t *testing.T) {
	// The dataplane's per-packet path must not allocate: GC pauses
	// would otherwise dominate the microbenchmarks (the repro-band
	// concern about Go GC and packets).
	r, err := NewRunnerString(plainChain)
	if err != nil {
		t.Fatal(err)
	}
	tpl := UDPTemplate(64)
	work := tpl.Clone()
	r.Measure(tpl, 1000) // warm up maps and pools
	allocs := testing.AllocsPerRun(2000, func() {
		*work = *tpl
		r.now += 1000
		r.router.Inject(r.ctx, 0, work)
	})
	if allocs > 0 {
		t.Errorf("hot path allocates %.1f objects/packet, want 0", allocs)
	}
}

func TestRunnerErrors(t *testing.T) {
	if _, err := NewRunnerString("not a config ::"); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewRunnerString("d :: Discard();"); err == nil {
		t.Error("router without sources accepted")
	}
}

func BenchmarkPlainChain64(b *testing.B) {
	r, err := NewRunnerString(plainChain)
	if err != nil {
		b.Fatal(err)
	}
	p := UDPTemplate(64)
	work := p.Clone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*work = *p
		r.router.Inject(r.ctx, 0, work)
	}
}

func BenchmarkSandboxedChain64(b *testing.B) {
	r, err := NewRunnerString(sandboxedChain)
	if err != nil {
		b.Fatal(err)
	}
	p := UDPTemplate(64)
	work := p.Clone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*work = *p
		r.router.Inject(r.ctx, 0, work)
	}
}
