package elements

import (
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
)

func TestQueueUnqueuePullPath(t *testing.T) {
	r := click.MustBuildString(`
in :: FromNetfront();
q :: Queue(100);
u :: Unqueue();
out :: ToNetfront();
in -> q -> u -> out;
`)
	var got []*packet.Packet
	ctx := &click.Context{
		Now:      func() int64 { return 0 },
		Transmit: func(iface int, p *packet.Packet) { got = append(got, p) },
	}
	for i := 0; i < 5; i++ {
		r.Inject(ctx, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	// The notifier drains the queue synchronously — no tick needed.
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5 via the pull path", len(got))
	}
	// FIFO order preserved.
	for i, p := range got {
		if p.DstPort != uint16(i) {
			t.Fatalf("reordered: got[%d].DstPort = %d", i, p.DstPort)
		}
	}
	u := r.Element("u").(*Unqueue)
	if u.Pulled != 5 {
		t.Errorf("Pulled = %d", u.Pulled)
	}
	// The queue must not double-deliver on the driver tick.
	r.Tick(ctx)
	if len(got) != 5 {
		t.Errorf("tick double-delivered: %d", len(got))
	}
}

func TestUnqueueBurstLimit(t *testing.T) {
	q := &Queue{}
	configure(t, q, "100")
	u := &Unqueue{}
	configure(t, u, "2")
	out := wire(t, u, 0)
	if err := q.SetOutput(0, click.Target{Elem: u, Port: 0}); err != nil {
		t.Fatal(err)
	}
	if err := u.SetUpstream(0, q, 0); err != nil {
		t.Fatal(err)
	}
	ctx, _, _ := testCtx()
	for i := 0; i < 5; i++ {
		click.Push(ctx, q, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, uint16(i)))
	}
	// Each Push kicks; burst 2 per kick, so everything still drains
	// (kick per arrival), but a manual refill shows the limit.
	if len(out.got) != 5 {
		t.Fatalf("drained = %d", len(out.got))
	}
	// Refill silently (bypassing Push's kick), then one kick moves at
	// most 2.
	q.buf = append(q.buf, udpPkt("1.1.1.1", "2.2.2.2", 1, 10), udpPkt("1.1.1.1", "2.2.2.2", 1, 11), udpPkt("1.1.1.1", "2.2.2.2", 1, 12))
	u.Kick(ctx)
	if len(out.got) != 7 {
		t.Errorf("burst-limited kick moved %d", len(out.got)-5)
	}
	// The safety-net tick drains the rest.
	if d := u.Tick(ctx); d != -1 {
		t.Errorf("tick = %d", d)
	}
	if len(out.got) != 8 {
		t.Errorf("after tick = %d", len(out.got))
	}
}

func TestUnqueueGuards(t *testing.T) {
	u := &Unqueue{}
	configure(t, u)
	// Pushing into a pull input drops.
	drops := 0
	ctx := &click.Context{Now: func() int64 { return 0 }, DropHook: func(p *packet.Packet) { drops++ }}
	click.Push(ctx, u, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	if drops != 1 {
		t.Error("push into pull input not dropped")
	}
	// Kick with no upstream is a no-op.
	u.Kick(ctx)
	// Double upstream wiring is rejected.
	q := &Queue{}
	configure(t, q, "10")
	if err := u.SetUpstream(0, q, 0); err != nil {
		t.Fatal(err)
	}
	if err := u.SetUpstream(0, q, 0); err == nil {
		t.Error("double upstream accepted")
	}
	// Config validation.
	if err := (&Unqueue{}).Configure([]string{"0"}); err == nil {
		t.Error("bad burst accepted")
	}
	if err := (&Unqueue{}).Configure([]string{"1", "2"}); err == nil {
		t.Error("extra args accepted")
	}
}

func TestQueueStillSelfDrainsWithoutPuller(t *testing.T) {
	// Push-only downstream: the old behaviour is preserved.
	q := &Queue{}
	configure(t, q, "10")
	out := wire(t, q, 0)
	ctx, _, _ := testCtx()
	click.Push(ctx, q, 0, udpPkt("1.1.1.1", "2.2.2.2", 1, 2))
	if len(out.got) != 0 {
		t.Fatal("queue leaked before tick")
	}
	q.Tick(ctx)
	if len(out.got) != 1 {
		t.Fatal("self-drain broken")
	}
}
