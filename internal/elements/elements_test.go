package elements

import (
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

// sink collects packets pushed into it.
type sink struct {
	click.Base
	got []*packet.Packet
}

func (s *sink) Class() string                 { return "testSink" }
func (s *sink) Configure(args []string) error { return nil }
func (s *sink) InPorts() int                  { return click.AnyPorts }
func (s *sink) OutPorts() int                 { return 0 }
func (s *sink) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	s.got = append(s.got, p)
	return click.Held
}

func testCtx() (*click.Context, *int64, *int) {
	now := new(int64)
	drops := new(int)
	return &click.Context{
		Now:      func() int64 { return *now },
		DropHook: func(_ click.DropReason, p *packet.Packet) { *drops++ },
	}, now, drops
}

// wire builds el -> sink on the given output port.
func wire(t *testing.T, el click.Element, port int) *sink {
	t.Helper()
	s := &sink{}
	if err := el.SetOutput(port, click.Target{Elem: s, Port: 0}); err != nil {
		t.Fatal(err)
	}
	return s
}

func configure(t *testing.T, el click.Element, args ...string) {
	t.Helper()
	if err := el.Configure(args); err != nil {
		t.Fatalf("Configure(%v): %v", args, err)
	}
}

func udpPkt(src, dst string, sp, dp uint16) *packet.Packet {
	return &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP(src),
		DstIP:    packet.MustParseIP(dst),
		SrcPort:  sp, DstPort: dp, TTL: 64,
		Payload: []byte("payload"),
	}
}

func TestIPFilterRuntime(t *testing.T) {
	f := &IPFilter{}
	configure(t, f, "allow udp port 1500", "deny all")
	out := wire(t, f, 0)
	ctx, _, drops := testCtx()
	click.Push(ctx, f, 0, udpPkt("1.1.1.1", "2.2.2.2", 5, 1500))
	click.Push(ctx, f, 0, udpPkt("1.1.1.1", "2.2.2.2", 5, 99))
	if len(out.got) != 1 || *drops != 1 || f.Dropped != 1 {
		t.Errorf("out=%d drops=%d", len(out.got), *drops)
	}
	// No matching rule at all -> drop.
	f2 := &IPFilter{}
	configure(t, f2, "allow tcp")
	wire(t, f2, 0)
	click.Push(ctx, f2, 0, udpPkt("1.1.1.1", "2.2.2.2", 5, 5))
	if f2.Dropped != 1 {
		t.Error("unmatched packet should drop")
	}
}

func TestIPFilterRuleOrder(t *testing.T) {
	f := &IPFilter{}
	configure(t, f, "deny dst port 80", "allow tcp")
	out := wire(t, f, 0)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 80)
	p.Protocol = packet.ProtoTCP
	click.Push(ctx, f, 0, p) // denied by first rule despite being tcp
	if len(out.got) != 0 {
		t.Error("first-match semantics violated")
	}
}

func TestIPFilterSym(t *testing.T) {
	f := &IPFilter{}
	configure(t, f, "allow udp port 1500", "deny all")
	trs := f.Sym(0, symexec.NewState())
	// "port 1500" splits into src/dst branches: 2 allowed flows.
	if len(trs) != 2 {
		t.Fatalf("transitions = %d", len(trs))
	}
	for _, tr := range trs {
		if v, ok := tr.S.Values(symexec.FieldProto).IsSingle(); !ok || v != 17 {
			t.Errorf("branch proto = %v", tr.S.Values(symexec.FieldProto))
		}
	}
	// A filter denying everything yields no flows.
	f2 := &IPFilter{}
	configure(t, f2, "deny all")
	if trs := f2.Sym(0, symexec.NewState()); len(trs) != 0 {
		t.Errorf("deny-all produced %d flows", len(trs))
	}
}

func TestIPFilterConfigErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, {"frobnicate udp"}, {"allow not-a-primitive-xyz"}, {""},
	} {
		f := &IPFilter{}
		if err := f.Configure(args); err == nil {
			t.Errorf("Configure(%v) accepted", args)
		}
	}
}

func TestIPClassifierRuntimeAndSym(t *testing.T) {
	c := &IPClassifier{}
	configure(t, c, "udp", "tcp", "-")
	u := wire(t, c, 0)
	tc := wire(t, c, 1)
	rest := wire(t, c, 2)
	ctx, _, _ := testCtx()
	click.Push(ctx, c, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p.Protocol = packet.ProtoTCP
	click.Push(ctx, c, 0, p)
	p2 := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p2.Protocol = packet.ProtoICMP
	click.Push(ctx, c, 0, p2)
	if len(u.got) != 1 || len(tc.got) != 1 || len(rest.got) != 1 {
		t.Errorf("classified %d/%d/%d", len(u.got), len(tc.got), len(rest.got))
	}
	if c.Matched[0] != 1 || c.Matched[1] != 1 || c.Matched[2] != 1 {
		t.Errorf("Matched = %v", c.Matched)
	}
	if c.OutPorts() != 3 {
		t.Errorf("OutPorts = %d", c.OutPorts())
	}

	trs := c.Sym(0, symexec.NewState())
	byPort := map[int]int{}
	for _, tr := range trs {
		byPort[tr.Port]++
	}
	if byPort[0] != 1 || byPort[1] != 1 || byPort[2] < 1 {
		t.Errorf("sym transitions per port = %v", byPort)
	}
	// Default branch must exclude udp and tcp.
	for _, tr := range trs {
		if tr.Port == 2 {
			v := tr.S.Values(symexec.FieldProto)
			if v.Contains(6) || v.Contains(17) {
				t.Errorf("default branch protos = %v", v)
			}
		}
	}
}

func TestDPIRuntimeAndSym(t *testing.T) {
	d := &DPI{}
	configure(t, d, `"attack"`)
	clean := wire(t, d, 0)
	bad := wire(t, d, 1)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p.Payload = []byte("normal traffic")
	click.Push(ctx, d, 0, p)
	p2 := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p2.Payload = []byte("an attack payload")
	click.Push(ctx, d, 0, p2)
	if len(clean.got) != 1 || len(bad.got) != 1 || d.Hits != 1 {
		t.Errorf("clean=%d bad=%d hits=%d", len(clean.got), len(bad.got), d.Hits)
	}
	if trs := d.Sym(0, symexec.NewState()); len(trs) != 2 {
		t.Errorf("DPI sym must may-branch, got %d", len(trs))
	}
	// Unwired port 1 drops.
	d2 := &DPI{}
	configure(t, d2, "x")
	wire(t, d2, 0)
	_, _, drops := testCtx()
	ctx2 := &click.Context{Now: func() int64 { return 0 }, DropHook: func(_ click.DropReason, p *packet.Packet) { *drops++ }}
	p3 := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p3.Payload = []byte("xx")
	click.Push(ctx2, d2, 0, p3)
	if *drops != 1 {
		t.Error("matched packet with unwired port 1 should drop")
	}
}

func TestIPRewriterForwardAndReverse(t *testing.T) {
	rw := &IPRewriter{}
	configure(t, rw, "pattern - - 172.16.15.133 - 0 0")
	out := wire(t, rw, 0)
	ctx, _, _ := testCtx()
	p := udpPkt("8.8.8.8", "198.51.100.7", 4444, 1500)
	click.Push(ctx, rw, 0, p)
	if len(out.got) != 1 {
		t.Fatal("no forward output")
	}
	if got := packet.IPString(p.DstIP); got != "172.16.15.133" {
		t.Errorf("dst = %s", got)
	}
	if p.SrcIP != packet.MustParseIP("8.8.8.8") || p.DstPort != 1500 {
		t.Error("untouched fields changed")
	}
	// Reply direction restores the original destination.
	reply := &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("172.16.15.133"),
		DstIP:    packet.MustParseIP("8.8.8.8"),
		SrcPort:  1500, DstPort: 4444, TTL: 64,
	}
	click.Push(ctx, rw, 1, reply)
	if len(out.got) != 2 {
		t.Fatal("no reverse output")
	}
	if got := packet.IPString(reply.SrcIP); got != "198.51.100.7" {
		t.Errorf("restored src = %s", got)
	}
	// Unknown reply tuple drops.
	stray := udpPkt("9.9.9.9", "8.8.8.8", 1, 2)
	_, _, drops := testCtx()
	ctx2 := &click.Context{Now: func() int64 { return 0 }, DropHook: func(_ click.DropReason, p *packet.Packet) { *drops++ }}
	click.Push(ctx2, rw, 1, stray)
	if *drops != 1 {
		t.Error("stray reply should drop")
	}
}

func TestIPRewriterSym(t *testing.T) {
	rw := &IPRewriter{}
	configure(t, rw, "pattern 10.0.0.1 5000 - - 0 0")
	s := symexec.NewState()
	trs := rw.Sym(0, s)
	if len(trs) != 1 {
		t.Fatal("want 1 transition")
	}
	st := trs[0].S
	if v, ok := st.Values(symexec.FieldSrcIP).IsSingle(); !ok || v != uint64(packet.MustParseIP("10.0.0.1")) {
		t.Errorf("src = %v", st.Values(symexec.FieldSrcIP))
	}
	if v, ok := st.Values(symexec.FieldSrcPort).IsSingle(); !ok || v != 5000 {
		t.Errorf("sport = %v", st.Values(symexec.FieldSrcPort))
	}
	// Destination untouched: still the original free var.
	if st.Binding(symexec.FieldDstIP).DefHop != -1 {
		t.Error("dst should not be redefined")
	}
	// Reverse direction rewrites to runtime-dependent values.
	s2 := symexec.NewState()
	s2.PushHop("rw", 1) // the walker records the hop before Sym runs
	trs2 := rw.Sym(1, s2)
	if len(trs2) != 1 {
		t.Fatal("want 1 reverse transition")
	}
	if trs2[0].S.Binding(symexec.FieldSrcIP).DefHop == -1 {
		t.Error("reverse path should redefine addresses")
	}
}

func TestIPRewriterConfigErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, {"pattern - -"}, {"nopattern a b c d 0 0"},
		{"pattern bad - - - 0 0"}, {"pattern - 99999 - - 0 0"},
		{"pattern - - - - x 0"}, {"pattern - - - - 0 -1"},
	} {
		rw := &IPRewriter{}
		if err := rw.Configure(args); err == nil {
			t.Errorf("Configure(%v) accepted", args)
		}
	}
}

func TestDecIPTTL(t *testing.T) {
	d := &DecIPTTL{}
	configure(t, d)
	out := wire(t, d, 0)
	ctx, _, drops := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p.TTL = 2
	click.Push(ctx, d, 0, p)
	if p.TTL != 1 || len(out.got) != 1 {
		t.Errorf("ttl = %d", p.TTL)
	}
	click.Push(ctx, d, 0, p) // now TTL 1 -> expired
	if *drops != 1 || d.Expired != 1 {
		t.Error("expired packet not dropped")
	}
	trs := d.Sym(0, symexec.NewState())
	if len(trs) != 2 {
		t.Fatalf("sym transitions = %d", len(trs))
	}
	for _, tr := range trs {
		vals := tr.S.Values(symexec.FieldTTL)
		switch tr.Port {
		case 0:
			if vals.Contains(0) || vals.Contains(255) {
				t.Errorf("live ttl = %v", vals)
			}
		case 1:
			if !vals.SubsetOf(symexec.Span(0, 1)) {
				t.Errorf("expired ttl = %v", vals)
			}
		}
	}
}

func TestLookupIPRoute(t *testing.T) {
	r := &LookupIPRoute{}
	configure(t, r, "10.0.0.0/8 0", "10.1.0.0/16 1", "0.0.0.0/0 2")
	o0 := wire(t, r, 0)
	o1 := wire(t, r, 1)
	o2 := wire(t, r, 2)
	ctx, _, _ := testCtx()
	click.Push(ctx, r, 0, udpPkt("9.9.9.9", "10.2.3.4", 1, 2))   // /8
	click.Push(ctx, r, 0, udpPkt("9.9.9.9", "10.1.3.4", 1, 2))   // /16 (longest)
	click.Push(ctx, r, 0, udpPkt("9.9.9.9", "192.0.2.19", 1, 2)) // default
	if len(o0.got) != 1 || len(o1.got) != 1 || len(o2.got) != 1 {
		t.Errorf("routed %d/%d/%d", len(o0.got), len(o1.got), len(o2.got))
	}

	trs := r.Sym(0, symexec.NewState())
	// One flow per route; the /8 flow must exclude the /16.
	for _, tr := range trs {
		vals := tr.S.Values(symexec.FieldDstIP)
		if tr.Port == 0 && vals.Contains(uint64(packet.MustParseIP("10.1.0.1"))) {
			t.Error("/8 branch includes /16 addresses")
		}
		if tr.Port == 2 && vals.Contains(uint64(packet.MustParseIP("10.5.5.5"))) {
			t.Error("default branch includes /8 addresses")
		}
	}
}

func TestStatefulFirewall(t *testing.T) {
	fw := &StatefulFirewall{}
	configure(t, fw, "allow udp", "timeout 30")
	outb := wire(t, fw, 0)
	inb := wire(t, fw, 1)
	ctx, now, drops := testCtx()

	// TCP outbound violates policy.
	p := udpPkt("10.0.0.1", "8.8.8.8", 1111, 53)
	p.Protocol = packet.ProtoTCP
	click.Push(ctx, fw, 0, p)
	if *drops != 1 {
		t.Error("tcp outbound should drop")
	}
	// UDP outbound passes and records the flow.
	click.Push(ctx, fw, 0, udpPkt("10.0.0.1", "8.8.8.8", 1111, 53))
	if len(outb.got) != 1 || fw.ActiveFlows() != 1 {
		t.Error("udp outbound")
	}
	// Related response passes.
	click.Push(ctx, fw, 1, udpPkt("8.8.8.8", "10.0.0.1", 53, 1111))
	if len(inb.got) != 1 {
		t.Error("related response blocked")
	}
	// Unrelated inbound drops.
	click.Push(ctx, fw, 1, udpPkt("9.9.9.9", "10.0.0.1", 53, 1111))
	if len(inb.got) != 1 {
		t.Error("unrelated inbound passed")
	}
	// Timeout expiry revokes authorization.
	*now += int64(31 * 1e9)
	click.Push(ctx, fw, 1, udpPkt("8.8.8.8", "10.0.0.1", 53, 1111))
	if len(inb.got) != 1 {
		t.Error("expired flow passed")
	}
}

func TestStatefulFirewallSymFig2(t *testing.T) {
	fw := &StatefulFirewall{}
	configure(t, fw, "allow udp")
	// Outbound: tagged + constrained to udp.
	trs := fw.Sym(0, symexec.NewState())
	if len(trs) != 1 {
		t.Fatalf("outbound transitions = %d", len(trs))
	}
	st := trs[0].S
	if v, ok := st.Values(symexec.FieldFWTag).IsSingle(); !ok || v != 1 {
		t.Error("fw_tag not set")
	}
	// Inbound without tag: dropped.
	if trs := fw.Sym(1, symexec.NewState()); len(trs) != 0 {
		t.Error("untagged inbound passed symbolically")
	}
	// Inbound with tag: passes.
	tagged := symexec.NewState()
	tagged.Assign(symexec.FieldFWTag, symexec.Const(1))
	if trs := fw.Sym(1, tagged); len(trs) != 1 || trs[0].Port != 1 {
		t.Error("tagged inbound blocked")
	}
}

func TestFlowMeter(t *testing.T) {
	m := &FlowMeter{}
	configure(t, m)
	out := wire(t, m, 0)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 10, 20)
	click.Push(ctx, m, 0, p)
	click.Push(ctx, m, 0, udpPkt("1.1.1.1", "2.2.2.2", 10, 20))
	click.Push(ctx, m, 0, udpPkt("3.3.3.3", "2.2.2.2", 10, 20))
	if m.Flows() != 2 || len(out.got) != 3 {
		t.Errorf("flows = %d out = %d", m.Flows(), len(out.got))
	}
	pk, by, ok := m.Stats(p.Tuple())
	if !ok || pk != 2 || by == 0 {
		t.Errorf("stats = %d %d %v", pk, by, ok)
	}
	if _, _, ok := m.Stats(packet.FiveTuple{}); ok {
		t.Error("missing flow reported")
	}
}

func TestChangeEnforcer(t *testing.T) {
	ce := &ChangeEnforcer{}
	configure(t, ce, "whitelist 192.0.2.1", "timeout 60")
	toModule := wire(t, ce, 0)
	toWorld := wire(t, ce, 1)
	ctx, now, _ := testCtx()

	// Outside -> module always passes and authorizes the source.
	click.Push(ctx, ce, 0, udpPkt("8.8.8.8", "172.16.0.5", 1000, 2000))
	if len(toModule.got) != 1 {
		t.Fatal("inbound blocked")
	}
	// Module -> authorized destination passes.
	click.Push(ctx, ce, 1, udpPkt("172.16.0.5", "8.8.8.8", 2000, 1000))
	if len(toWorld.got) != 1 {
		t.Error("implicitly authorized reply blocked")
	}
	// Module -> whitelisted destination passes.
	click.Push(ctx, ce, 1, udpPkt("172.16.0.5", "192.0.2.1", 1, 2))
	if len(toWorld.got) != 2 {
		t.Error("whitelisted destination blocked")
	}
	// Module -> anything else drops.
	click.Push(ctx, ce, 1, udpPkt("172.16.0.5", "203.0.113.77", 1, 2))
	if len(toWorld.got) != 2 || ce.Blocked != 1 {
		t.Error("unauthorized destination passed")
	}
	// Authorization expires.
	*now += int64(61 * 1e9)
	click.Push(ctx, ce, 1, udpPkt("172.16.0.5", "8.8.8.8", 2000, 1000))
	if len(toWorld.got) != 2 {
		t.Error("expired authorization honored")
	}
}

func TestChangeEnforcerSym(t *testing.T) {
	ce := &ChangeEnforcer{}
	configure(t, ce, "whitelist 192.0.2.1 192.0.2.2")
	// Round trip: in, then module echoes back (dst := src), then out.
	s := symexec.NewState()
	in := ce.Sym(0, s)
	if len(in) != 1 {
		t.Fatal("inbound")
	}
	st := in[0].S
	// Module behavior: echo (dst := src).
	st.Assign(symexec.FieldDstIP, st.Get(symexec.FieldSrcIP))
	out := ce.Sym(1, st)
	if len(out) != 1 || out[0].Port != 1 {
		t.Fatal("echo reply should pass the enforcer")
	}
	// A module that sets dst to a non-whitelisted constant is blocked.
	s2 := symexec.NewState()
	in2 := ce.Sym(0, s2)
	st2 := in2[0].S
	st2.Assign(symexec.FieldDstIP, symexec.Const(uint64(packet.MustParseIP("203.0.113.9"))))
	if out := ce.Sym(1, st2); len(out) != 0 {
		t.Error("non-whitelisted constant passed")
	}
	// Whitelisted constant passes.
	st2.Assign(symexec.FieldDstIP, symexec.Const(uint64(packet.MustParseIP("192.0.2.2"))))
	if out := ce.Sym(1, st2); len(out) != 1 {
		t.Error("whitelisted constant blocked")
	}
}

func TestTunnelEncapDecapRoundTrip(t *testing.T) {
	enc := &UDPIPEncap{}
	configure(t, enc, "10.0.0.1 5000 192.0.2.9 5000")
	dec := &IPDecap{}
	configure(t, dec)
	encOut := wire(t, enc, 0)
	decOut := wire(t, dec, 0)
	ctx, _, _ := testCtx()

	orig := udpPkt("172.16.0.5", "8.8.8.8", 1234, 53)
	inner := orig.Clone()
	click.Push(ctx, enc, 0, inner)
	if len(encOut.got) != 1 {
		t.Fatal("no encap output")
	}
	outer := encOut.got[0]
	if outer.DstIP != packet.MustParseIP("192.0.2.9") || outer.Protocol != packet.ProtoUDP {
		t.Errorf("outer headers: %v", outer)
	}
	click.Push(ctx, dec, 0, outer)
	if len(decOut.got) != 1 {
		t.Fatal("no decap output")
	}
	got := decOut.got[0]
	if got.SrcIP != orig.SrcIP || got.DstIP != orig.DstIP ||
		got.SrcPort != orig.SrcPort || got.DstPort != orig.DstPort {
		t.Errorf("decap mismatch: %v vs %v", got, orig)
	}
	if string(got.Payload) != string(orig.Payload) {
		t.Error("payload lost in tunnel")
	}
}

func TestIPDecapMalformed(t *testing.T) {
	dec := &IPDecap{}
	configure(t, dec)
	wire(t, dec, 0)
	ctx, _, drops := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	p.Payload = []byte{0xde, 0xad}
	click.Push(ctx, dec, 0, p)
	if *drops != 1 || dec.Malformed != 1 {
		t.Error("malformed inner packet not dropped")
	}
}

func TestIPDecapSymFreesAllFields(t *testing.T) {
	dec := &IPDecap{}
	configure(t, dec)
	s := symexec.NewState()
	s.PushHop("decap", 0) // the walker records the hop before Sym runs
	srcVar, _ := s.Get(symexec.FieldSrcIP).IsVar()
	trs := dec.Sym(0, s)
	if len(trs) != 1 {
		t.Fatal("transitions")
	}
	st := trs[0].S
	dstVar, ok := st.Get(symexec.FieldDstIP).IsVar()
	if !ok {
		t.Fatal("dst should be a var")
	}
	if dstVar == srcVar {
		t.Error("decapped dst must not alias the outer src")
	}
	if st.Binding(symexec.FieldDstIP).DefHop == -1 {
		t.Error("dst must be marked redefined")
	}
}

func TestTeeDuplicates(t *testing.T) {
	te := &Tee{}
	configure(t, te, "3")
	o0 := wire(t, te, 0)
	o1 := wire(t, te, 1)
	o2 := wire(t, te, 2)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	click.Push(ctx, te, 0, p)
	if len(o0.got) != 1 || len(o1.got) != 1 || len(o2.got) != 1 {
		t.Error("tee fanout")
	}
	if o0.got[0] == o1.got[0] {
		t.Error("clones must be distinct")
	}
	if trs := te.Sym(0, symexec.NewState()); len(trs) != 3 {
		t.Errorf("sym fanout = %d", len(trs))
	}
}

func TestPaintAndCheckPaint(t *testing.T) {
	pa := &Paint{}
	configure(t, pa, "7")
	cp := &CheckPaint{}
	configure(t, cp, "7")
	paOut := wire(t, pa, 0)
	match := wire(t, cp, 0)
	rest := wire(t, cp, 1)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	click.Push(ctx, pa, 0, p)
	if p.Paint != 7 || len(paOut.got) != 1 {
		t.Error("paint")
	}
	click.Push(ctx, cp, 0, p)
	q := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	click.Push(ctx, cp, 0, q)
	if len(match.got) != 1 || len(rest.got) != 1 {
		t.Error("checkpaint branch")
	}
	// Symbolic: painted flow takes port 0 only.
	s := symexec.NewState()
	pa.Sym(0, s)
	trs := cp.Sym(0, s)
	if len(trs) != 1 || trs[0].Port != 0 {
		t.Errorf("painted sym = %+v", trs)
	}
}

func TestSetIPFields(t *testing.T) {
	ss := click.Lookup("SetIPSrc")().(*SetIPField)
	configure(t, ss, "10.9.8.7")
	sd := click.Lookup("SetIPDst")().(*SetIPField)
	configure(t, sd, "1.2.3.4")
	so := wire(t, ss, 0)
	wire(t, sd, 0)
	ctx, _, _ := testCtx()
	p := udpPkt("5.5.5.5", "6.6.6.6", 1, 2)
	click.Push(ctx, ss, 0, p)
	click.Push(ctx, sd, 0, p)
	if packet.IPString(p.SrcIP) != "10.9.8.7" || packet.IPString(p.DstIP) != "1.2.3.4" {
		t.Errorf("set fields: %v", p)
	}
	if len(so.got) != 1 {
		t.Error("output")
	}
	s := symexec.NewState()
	sd.Sym(0, s)
	if v, ok := s.Values(symexec.FieldDstIP).IsSingle(); !ok || v != uint64(packet.MustParseIP("1.2.3.4")) {
		t.Error("SetIPDst sym")
	}
	if ss.Class() != "SetIPSrc" || sd.Class() != "SetIPDst" {
		t.Error("classes")
	}
}

func TestQueueAndTick(t *testing.T) {
	q := &Queue{}
	configure(t, q, "2")
	out := wire(t, q, 0)
	ctx, _, drops := testCtx()
	click.Push(ctx, q, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	click.Push(ctx, q, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 3))
	click.Push(ctx, q, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 4)) // overflow
	if q.Len() != 2 || *drops != 1 || q.Drops != 1 {
		t.Errorf("len=%d drops=%d", q.Len(), *drops)
	}
	q.Tick(ctx)
	if len(out.got) != 2 || q.Len() != 0 {
		t.Error("drain")
	}
}

func TestTimedUnqueueBatching(t *testing.T) {
	tu := &TimedUnqueue{}
	configure(t, tu, "120", "100")
	if tu.IntervalNS != 120*1e9 || tu.Burst != 100 {
		t.Fatalf("config: %+v", tu)
	}
	out := wire(t, tu, 0)
	ctx, now, _ := testCtx()
	for i := 0; i < 5; i++ {
		click.Push(ctx, tu, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	if d := tu.Tick(ctx); d != 120*1e9 {
		t.Errorf("tick delay = %d", d)
	}
	if len(out.got) != 0 {
		t.Error("released early")
	}
	*now += 120 * 1e9
	tu.Tick(ctx)
	if len(out.got) != 5 || tu.Released != 5 {
		t.Errorf("released = %d", len(out.got))
	}
	if d := tu.Tick(ctx); d != -1 {
		t.Errorf("idle = %d", d)
	}
}

func TestTimedUnqueueBurstLimit(t *testing.T) {
	tu := &TimedUnqueue{}
	configure(t, tu, "1", "2")
	out := wire(t, tu, 0)
	ctx, now, _ := testCtx()
	for i := 0; i < 5; i++ {
		click.Push(ctx, tu, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	*now += 1e9
	tu.Tick(ctx)
	if len(out.got) != 2 || tu.Pending() != 3 {
		t.Errorf("burst: out=%d pending=%d", len(out.got), tu.Pending())
	}
	*now += 1e9
	tu.Tick(ctx)
	*now += 1e9
	tu.Tick(ctx)
	if len(out.got) != 5 {
		t.Errorf("total released = %d", len(out.got))
	}
}

func TestRatedUnqueue(t *testing.T) {
	ru := &RatedUnqueue{}
	configure(t, ru, "1000") // 1 pkt/ms
	out := wire(t, ru, 0)
	ctx, now, _ := testCtx()
	for i := 0; i < 3; i++ {
		click.Push(ctx, ru, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	ru.Tick(ctx) // releases first immediately
	if len(out.got) != 1 {
		t.Errorf("first release = %d", len(out.got))
	}
	*now += 2e6 // 2 ms -> 2 more
	ru.Tick(ctx)
	if len(out.got) != 3 {
		t.Errorf("after 2ms = %d", len(out.got))
	}
}

func TestRateLimiterPolices(t *testing.T) {
	rl := &RateLimiter{}
	configure(t, rl, "10", "2") // 10 pps, burst 2
	out := wire(t, rl, 0)
	ctx, now, _ := testCtx()
	for i := 0; i < 5; i++ {
		click.Push(ctx, rl, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	if len(out.got) != 2 || rl.Dropped != 3 {
		t.Errorf("burst pass = %d dropped = %d", len(out.got), rl.Dropped)
	}
	*now += 1e9 // refill 10 tokens, capped at 2
	click.Push(ctx, rl, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 99))
	if len(out.got) != 3 {
		t.Error("refill failed")
	}
}

func TestBandwidthShaperBytes(t *testing.T) {
	bs := click.Lookup("BandwidthShaper")().(*RateLimiter)
	configure(t, bs, "100") // 100 B/s, burst 100 B
	out := wire(t, bs, 0)
	ctx, _, _ := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2) // 28 + 7 = 35 bytes
	click.Push(ctx, bs, 0, p)
	click.Push(ctx, bs, 0, p.Clone())
	click.Push(ctx, bs, 0, p.Clone()) // 105 bytes total > 100
	if len(out.got) != 2 || bs.Dropped != 1 {
		t.Errorf("passed = %d dropped = %d", len(out.got), bs.Dropped)
	}
	if bs.Class() != "BandwidthShaper" {
		t.Error("class")
	}
}

func TestCounterDiscardCRC(t *testing.T) {
	c := &Counter{}
	configure(t, c)
	crc := &SetCRC32{}
	configure(t, crc)
	d := &Discard{}
	configure(t, d)
	cOut := wire(t, c, 0)
	crcOut := wire(t, crc, 0)
	ctx, _, drops := testCtx()
	p := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	click.Push(ctx, c, 0, p)
	click.Push(ctx, crc, 0, p)
	click.Push(ctx, d, 0, p)
	if c.Packets != 1 || len(cOut.got) != 1 {
		t.Error("counter")
	}
	if crc.Last == 0 || len(crcOut.got) != 1 {
		t.Error("crc")
	}
	if d.Count != 1 || *drops != 1 {
		t.Error("discard")
	}
}

func TestCheckIPHeader(t *testing.T) {
	ch := &CheckIPHeader{}
	configure(t, ch)
	good := wire(t, ch, 0)
	ctx, _, drops := testCtx()
	click.Push(ctx, ch, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	bad := udpPkt("1.1.1.1", "2.2.2.2", 1, 2)
	bad.TTL = 0
	click.Push(ctx, ch, 0, bad)
	if len(good.got) != 1 || *drops != 1 || ch.Drops != 1 {
		t.Error("checkipheader")
	}
}

func TestConfigureArgValidation(t *testing.T) {
	cases := []struct {
		class string
		args  []string
	}{
		{"Paint", nil},
		{"Paint", []string{"300"}},
		{"CheckPaint", []string{"abc"}},
		{"Tee", []string{"0"}},
		{"Tee", []string{"1", "2"}},
		{"Queue", []string{"-5"}},
		{"TimedUnqueue", nil},
		{"TimedUnqueue", []string{"0"}},
		{"TimedUnqueue", []string{"5", "-1"}},
		{"RatedUnqueue", []string{"0"}},
		{"RateLimiter", nil},
		{"RateLimiter", []string{"abc"}},
		{"SetIPSrc", []string{"nope"}},
		{"SetIPDst", nil},
		{"SetTOS", []string{"999"}},
		{"Discard", []string{"x"}},
		{"Counter", []string{"x"}},
		{"SetCRC32", []string{"x"}},
		{"FromNetfront", []string{"-1"}},
		{"ToNetfront", []string{"a", "b"}},
		{"DPI", nil},
		{"DPI", []string{`""`}},
		{"LookupIPRoute", nil},
		{"LookupIPRoute", []string{"10.0.0.0/8"}},
		{"LookupIPRoute", []string{"bad 0"}},
		{"UDPIPEncap", []string{"10.0.0.1 99 192.0.2.1"}},
		{"UDPIPEncap", []string{"x 1 y 2"}},
		{"IPDecap", []string{"x"}},
		{"StatefulFirewall", []string{"bogus option"}},
		{"StatefulFirewall", []string{"timeout x"}},
		{"ChangeEnforcer", []string{"whitelist notanip"}},
		{"ChangeEnforcer", []string{"timeout -3"}},
		{"ChangeEnforcer", []string{"wat"}},
		{"DecIPTTL", []string{"x"}},
	}
	for _, c := range cases {
		f := click.Lookup(c.class)
		if f == nil {
			t.Fatalf("class %s missing", c.class)
		}
		if err := f().Configure(c.args); err == nil {
			t.Errorf("%s.Configure(%v) accepted", c.class, c.args)
		}
	}
}

func TestDefaultsAccepted(t *testing.T) {
	ok := []struct {
		class string
		args  []string
	}{
		{"Queue", nil},
		{"Queue", []string{""}},
		{"Tee", nil},
		{"FromNetfront", nil},
		{"FromNetfront", []string{"1"}},
		{"ToNetfront", []string{""}},
		{"StatefulFirewall", nil},
		{"ChangeEnforcer", nil},
		{"CheckIPHeader", nil},
	}
	for _, c := range ok {
		if err := click.Lookup(c.class)().Configure(c.args); err != nil {
			t.Errorf("%s.Configure(%v): %v", c.class, c.args, err)
		}
	}
}

// A deny rule's matched branch is dropped, so refining it must cost
// nothing: a deny-all filter allocates nothing beyond the state it is
// given.
func TestIPFilterDenyCostsNoClone(t *testing.T) {
	fresh := testing.AllocsPerRun(50, func() { symexec.NewState() })
	f := &IPFilter{}
	configure(t, f, "deny all")
	got := testing.AllocsPerRun(50, func() {
		if trs := f.Sym(0, symexec.NewState()); len(trs) != 0 {
			t.Fatalf("deny-all produced %d flows", len(trs))
		}
	}) - fresh
	if got > 0 {
		t.Errorf("deny all: %.0f allocations beyond the state, want 0", got)
	}
}
