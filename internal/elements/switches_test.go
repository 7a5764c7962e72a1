package elements

import (
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func TestRoundRobinSwitch(t *testing.T) {
	rr := &RoundRobinSwitch{}
	configure(t, rr, "3")
	outs := []*sink{wire(t, rr, 0), wire(t, rr, 1), wire(t, rr, 2)}
	ctx, _, _ := testCtx()
	for i := 0; i < 9; i++ {
		click.Push(ctx, rr, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	for i, o := range outs {
		if len(o.got) != 3 {
			t.Errorf("out %d = %d packets", i, len(o.got))
		}
	}
	if trs := rr.Sym(0, symexec.NewState()); len(trs) != 3 {
		t.Errorf("sym fanout = %d", len(trs))
	}
}

func TestHashSwitchFlowAffinity(t *testing.T) {
	hs := &HashSwitch{}
	configure(t, hs, "4")
	outs := []*sink{wire(t, hs, 0), wire(t, hs, 1), wire(t, hs, 2), wire(t, hs, 3)}
	ctx, _, _ := testCtx()
	// Same flow -> same output.
	for i := 0; i < 10; i++ {
		click.Push(ctx, hs, 0, udpPkt("1.1.1.1", "2.2.2.2", 1000, 2000))
	}
	nonEmpty := 0
	for _, o := range outs {
		if len(o.got) > 0 {
			nonEmpty++
			if len(o.got) != 10 {
				t.Errorf("flow split across outputs")
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("flow landed on %d outputs", nonEmpty)
	}
	// Many flows spread across outputs.
	for i := 0; i < 64; i++ {
		click.Push(ctx, hs, 0, udpPkt("1.1.1.1", "2.2.2.2", uint16(1000+i), 2000))
	}
	spread := 0
	for _, o := range outs {
		if len(o.got) > 0 {
			spread++
		}
	}
	if spread < 3 {
		t.Errorf("flows spread over only %d outputs", spread)
	}
}

func TestICMPPingResponder(t *testing.T) {
	r := &ICMPPingResponder{}
	configure(t, r)
	echo := wire(t, r, 0)
	pass := wire(t, r, 1)
	ctx, _, _ := testCtx()
	ping := &packet.Packet{
		Protocol: packet.ProtoICMP,
		SrcIP:    packet.MustParseIP("10.0.0.1"),
		DstIP:    packet.MustParseIP("10.0.0.2"),
		TTL:      64,
	}
	click.Push(ctx, r, 0, ping)
	if len(echo.got) != 1 || r.Replies != 1 {
		t.Fatal("no echo")
	}
	if packet.IPString(ping.SrcIP) != "10.0.0.2" || packet.IPString(ping.DstIP) != "10.0.0.1" {
		t.Error("addresses not swapped")
	}
	click.Push(ctx, r, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	if len(pass.got) != 1 {
		t.Error("udp not passed through")
	}
	// Symbolic: icmp branch has addresses aliased-swapped.
	trs := r.Sym(0, symexec.NewState())
	if len(trs) != 2 {
		t.Fatalf("sym transitions = %d", len(trs))
	}
	for _, tr := range trs {
		if tr.Port == 0 {
			if v, ok := tr.S.Values(symexec.FieldProto).IsSingle(); !ok || v != 1 {
				t.Error("echo branch not icmp")
			}
		}
	}
}

func TestSetPortsAndTTL(t *testing.T) {
	sp := click.Lookup("SetSrcPort")().(*SetPort)
	configure(t, sp, "8080")
	dp := click.Lookup("SetDstPort")().(*SetPort)
	configure(t, dp, "53")
	ttl := &SetIPTTL{}
	configure(t, ttl, "7")
	wire(t, sp, 0)
	wire(t, dp, 0)
	wire(t, ttl, 0)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	click.Push(ctx, sp, 0, p)
	click.Push(ctx, dp, 0, p)
	click.Push(ctx, ttl, 0, p)
	if p.SrcPort != 8080 || p.DstPort != 53 || p.TTL != 7 {
		t.Errorf("packet = %+v", p)
	}
	if sp.Class() != "SetSrcPort" || dp.Class() != "SetDstPort" {
		t.Error("classes")
	}
	s := symexec.NewState()
	sp.Sym(0, s)
	dp.Sym(0, s)
	ttl.Sym(0, s)
	if v, _ := s.Values(symexec.FieldSrcPort).IsSingle(); v != 8080 {
		t.Error("sym src port")
	}
	if v, _ := s.Values(symexec.FieldTTL).IsSingle(); v != 7 {
		t.Error("sym ttl")
	}
}

func TestSwitchConfigErrors(t *testing.T) {
	cases := []struct {
		class string
		args  []string
	}{
		{"RoundRobinSwitch", nil},
		{"RoundRobinSwitch", []string{"0"}},
		{"HashSwitch", []string{"abc"}},
		{"HashSwitch", []string{"999"}},
		{"ICMPPingResponder", []string{"x"}},
		{"SetSrcPort", []string{"70000"}},
		{"SetDstPort", nil},
		{"SetIPTTL", []string{"0"}},
		{"SetIPTTL", []string{"300"}},
	}
	for _, c := range cases {
		if err := click.Lookup(c.class)().Configure(c.args); err == nil {
			t.Errorf("%s.Configure(%v) accepted", c.class, c.args)
		}
	}
}

func TestLoadBalancerComposition(t *testing.T) {
	// A software load balancer: hash flows across two rewriters, each
	// pointing at a different backend — the kind of middlebox the
	// paper says NFV platforms must support.
	r := click.MustBuildString(`
in :: FromNetfront();
hs :: HashSwitch(2);
b0 :: SetIPDst(192.0.2.10);
b1 :: SetIPDst(192.0.2.11);
out :: ToNetfront();
in -> hs;
hs[0] -> b0 -> out;
hs[1] -> b1 -> out;
`)
	var got []*packet.Packet
	ctx := &click.Context{
		Now:      func() int64 { return 0 },
		Transmit: func(iface int, p *packet.Packet) { got = append(got, p) },
	}
	backends := map[uint32]int{}
	for i := 0; i < 50; i++ {
		p := udpPkt("8.8.8.8", "198.51.100.5", uint16(5000+i), 80)
		r.Inject(ctx, 0, p)
	}
	for _, p := range got {
		backends[p.DstIP]++
	}
	if len(got) != 50 || len(backends) != 2 {
		t.Errorf("balanced %d packets across %d backends", len(got), len(backends))
	}
}
