package elements

import (
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
)

func TestTimedSourceEmits(t *testing.T) {
	ts := &TimedSource{}
	configure(t, ts, "5", `"keepalive"`)
	out := wire(t, ts, 0)
	ctx, now, _ := testCtx()
	if d := ts.Tick(ctx); d != 5e9 {
		t.Fatalf("first tick delay = %d", d)
	}
	*now += 5e9
	ts.Tick(ctx)
	*now += 5e9
	ts.Tick(ctx)
	if len(out.got) != 2 || ts.Emitted != 2 {
		t.Fatalf("emitted = %d", len(out.got))
	}
	if string(out.got[0].Payload) != "keepalive" {
		t.Errorf("payload = %q", out.got[0].Payload)
	}
	if out.got[0].Protocol != packet.ProtoUDP {
		t.Error("proto")
	}
	// A pushed packet is swallowed (sources have no inputs).
	drops := 0
	ctx2 := &click.Context{Now: func() int64 { return 0 }, DropHook: func(_ click.DropReason, p *packet.Packet) { drops++ }}
	click.Push(ctx2, ts, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	if drops != 1 {
		t.Error("pushed packet not dropped")
	}
}

// TestTimedSourceSpoofingCaught is the security story behind source
// elements: a tenant module that originates traffic without stamping
// its own address is a spoofing risk and must be rejected; pinning
// the source to the module address (and an authorized destination)
// makes it deployable.
func TestTimedSourceSpoofingCaught(t *testing.T) {
	bad := click.MustBuildString(`
src :: TimedSource(5);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
src -> fwd -> out;
`)
	rep, err := security.Check(security.Input{
		ModuleID: "m", Module: bad,
		Addr:  packet.MustParseIP("198.51.100.77"),
		Trust: security.ThirdParty,
		Whitelist: []uint32{
			packet.MustParseIP("192.0.2.1"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != security.Rejected {
		t.Errorf("unpinned source verdict = %v (%v)", rep.Verdict, rep.Reasons)
	}
	good := click.MustBuildString(`
src :: TimedSource(5);
snat :: SetIPSrc(198.51.100.77);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
src -> snat -> fwd -> out;
`)
	rep2, err := security.Check(security.Input{
		ModuleID: "m", Module: good,
		Addr:  packet.MustParseIP("198.51.100.77"),
		Trust: security.ThirdParty,
		Whitelist: []uint32{
			packet.MustParseIP("192.0.2.1"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Verdict != security.Safe {
		t.Errorf("pinned source verdict = %v (%v)", rep2.Verdict, rep2.Reasons)
	}
}

func TestTimedSourceInModule(t *testing.T) {
	// A keepalive module ticking inside a click.Router.
	r := click.MustBuildString(`
src :: TimedSource(1);
snat :: SetIPSrc(198.51.100.77);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
src -> snat -> fwd -> out;
`)
	var got []*packet.Packet
	now := int64(0)
	ctx := &click.Context{
		Now:      func() int64 { return now },
		Transmit: func(iface int, p *packet.Packet) { got = append(got, p) },
	}
	r.Tick(ctx) // schedules
	for i := 0; i < 3; i++ {
		now += 1e9
		r.Tick(ctx)
	}
	if len(got) != 3 {
		t.Fatalf("keepalives = %d", len(got))
	}
	if packet.IPString(got[0].SrcIP) != "198.51.100.77" {
		t.Error("src not pinned")
	}
}

func TestMeter(t *testing.T) {
	m := &Meter{}
	configure(t, m, "2") // 2 pps
	under := wire(t, m, 0)
	over := wire(t, m, 1)
	ctx, now, _ := testCtx()
	for i := 0; i < 5; i++ {
		click.Push(ctx, m, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	if len(under.got) != 2 || len(over.got) != 3 || m.Over != 3 {
		t.Errorf("under=%d over=%d", len(under.got), len(over.got))
	}
	*now += 1e9 // refill
	click.Push(ctx, m, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 99))
	if len(under.got) != 3 {
		t.Error("refill")
	}
	if trs := m.Sym(0, symexec.NewState()); len(trs) != 2 {
		t.Error("meter sym must may-branch")
	}
}

func TestRandomSample(t *testing.T) {
	rs := &RandomSample{}
	configure(t, rs, "0.5")
	sampled := wire(t, rs, 0)
	rest := wire(t, rs, 1)
	ctx, _, _ := testCtx()
	for i := 0; i < 1000; i++ {
		click.Push(ctx, rs, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	if len(sampled.got) < 400 || len(sampled.got) > 600 {
		t.Errorf("sampled = %d of 1000 at p=0.5", len(sampled.got))
	}
	if len(sampled.got)+len(rest.got) != 1000 {
		t.Error("packets lost")
	}
	// p=0: nothing sampled; unwired port 1 drops.
	rs0 := &RandomSample{}
	configure(t, rs0, "0")
	wire(t, rs0, 0)
	drops := 0
	ctx2 := &click.Context{Now: func() int64 { return 0 }, DropHook: func(_ click.DropReason, p *packet.Packet) { drops++ }}
	click.Push(ctx2, rs0, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	if drops != 1 {
		t.Error("p=0 with unwired port 1 should drop")
	}
}

func TestSourceConfigErrors(t *testing.T) {
	cases := []struct {
		class string
		args  []string
	}{
		{"TimedSource", nil},
		{"TimedSource", []string{"0"}},
		{"TimedSource", []string{"1", "x", "y"}},
		{"Meter", nil},
		{"Meter", []string{"-1"}},
		{"RandomSample", nil},
		{"RandomSample", []string{"1.5"}},
		{"RandomSample", []string{"x"}},
	}
	for _, c := range cases {
		if err := click.Lookup(c.class)().Configure(c.args); err == nil {
			t.Errorf("%s.Configure(%v) accepted", c.class, c.args)
		}
	}
}
