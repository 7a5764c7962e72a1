package click_test

import (
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
)

func ctxCollecting(out *[]*packet.Packet) *click.Context {
	now := int64(0)
	return &click.Context{
		Now:      func() int64 { return now },
		Transmit: func(iface int, p *packet.Packet) { *out = append(*out, p) },
	}
}

func TestBuildAndRunPipeline(t *testing.T) {
	r := click.MustBuildString(`
in :: FromNetfront();
cnt :: Counter();
out :: ToNetfront();
in -> cnt -> out;
`)
	var got []*packet.Packet
	ctx := ctxCollecting(&got)
	p := &packet.Packet{Protocol: packet.ProtoUDP, TTL: 4}
	if err := r.Inject(ctx, 0, p); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != p {
		t.Fatalf("transmit got %d packets", len(got))
	}
	cnt := r.Element("cnt").(*elements.Counter)
	if cnt.Packets != 1 || cnt.Bytes != uint64(p.Len()) {
		t.Errorf("counter = %d pkts %d bytes", cnt.Packets, cnt.Bytes)
	}
}

func TestElementLookupAndClasses(t *testing.T) {
	if click.Lookup("IPFilter") == nil {
		t.Error("IPFilter not registered")
	}
	if click.Lookup("NoSuchElement") != nil {
		t.Error("bogus class found")
	}
	cs := click.Classes()
	if len(cs) < 20 {
		t.Errorf("only %d classes registered", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1] >= cs[i] {
			t.Error("Classes not sorted")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown class", `a :: Frobnicator();`},
		{"bad config", `a :: Paint(not-a-number);`},
		{"bad out port", `a :: Counter(); b :: Discard(); a[3] -> b;`},
		{"bad in port", `a :: Counter(); b :: Counter(); a -> [5]b;`},
	}
	for _, c := range cases {
		cfg, err := clicklang.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		if _, err := click.Build(cfg); err == nil {
			t.Errorf("%s: Build accepted %q", c.name, c.src)
		}
	}
}

func TestInjectErrors(t *testing.T) {
	r := click.MustBuildString(`d :: Discard();`)
	ctx := &click.Context{Now: func() int64 { return 0 }}
	if err := r.Inject(ctx, 0, &packet.Packet{}); err == nil {
		t.Error("inject into router with no sources should fail")
	}
	if r.NumSources() != 0 {
		t.Error("NumSources")
	}
}

func TestDropOnUnconnectedPort(t *testing.T) {
	r := click.MustBuildString(`in :: FromNetfront();`) // output unwired
	dropped := 0
	ctx := &click.Context{
		Now:      func() int64 { return 0 },
		DropHook: func(p *packet.Packet) { dropped++ },
	}
	if err := r.Inject(ctx, 0, &packet.Packet{}); err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

func TestDropRecyclesToPool(t *testing.T) {
	pool := packet.NewPool(1, 0)
	ctx := &click.Context{Now: func() int64 { return 0 }, Pool: pool}
	p := pool.Get()
	ctx.Drop(p)
	_, puts, _ := pool.Stats()
	if puts != 1 {
		t.Errorf("pool puts = %d", puts)
	}
}

func TestTickDrivesTimedElements(t *testing.T) {
	r := click.MustBuildString(`
in :: FromNetfront();
tu :: TimedUnqueue(2, 10);
out :: ToNetfront();
in -> tu -> out;
`)
	var got []*packet.Packet
	now := int64(0)
	ctx := &click.Context{
		Now:      func() int64 { return now },
		Transmit: func(iface int, p *packet.Packet) { got = append(got, p) },
	}
	for i := 0; i < 3; i++ {
		r.Inject(ctx, 0, &packet.Packet{})
	}
	if len(got) != 0 {
		t.Fatal("packets released before interval")
	}
	d := r.Tick(ctx)
	if d <= 0 {
		t.Fatalf("tick delay = %d, want positive (pending batch)", d)
	}
	now += d
	r.Tick(ctx)
	if len(got) != 3 {
		t.Errorf("released %d packets want 3", len(got))
	}
	if d := r.Tick(ctx); d != -1 {
		t.Errorf("idle tick = %d want -1", d)
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	click.Register("IPFilter", nil)
}

func TestRouterAccessors(t *testing.T) {
	r := click.MustBuildString(`a :: Counter(); b :: Discard(); a -> b;`)
	if r.Element("a") == nil || r.Element("b") == nil || r.Element("zz") != nil {
		t.Error("Element lookup")
	}
	if len(r.Elements()) != 2 {
		t.Error("Elements order")
	}
	if r.Config() == nil || len(r.Config().Conns) != 1 {
		t.Error("Config")
	}
}

func TestBaseSetOutputErrors(t *testing.T) {
	var b click.Base
	if err := b.SetOutput(-1, click.Target{}); err == nil {
		t.Error("negative port accepted")
	}
}

func TestVerdictEncoding(t *testing.T) {
	for r, name := range click.DropReasonNames() {
		v := click.Drop(click.DropReason(r))
		if v >= 0 || v == click.Held || v.IsTx() || v.Reason() != click.DropReason(r) || v.String() != "drop:"+name {
			t.Errorf("Drop(%s) = %d: reason %v, string %q", name, v, v.Reason(), v.String())
		}
	}
	for _, iface := range []int{0, 1, 9, 255} {
		v := click.Tx(iface)
		if !v.IsTx() || v.Iface() != iface {
			t.Errorf("Tx(%d) = %d: IsTx %v, Iface %d", iface, v, v.IsTx(), v.Iface())
		}
	}
	if click.Tx(2).String() != "tx:2" || click.Held.String() != "queued" || click.Verdict(3).String() != "forward" {
		t.Errorf("verdict strings: %q %q %q", click.Tx(2), click.Held, click.Verdict(3))
	}
	if click.Held.IsTx() {
		t.Error("Held must not read as Tx")
	}
}
