package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
)

// The stateful-schedule property: a random two-source schedule of
// forward and reply packets through a stateful firewall and a flow
// meter, with time advancing past the firewall timeout often enough to
// exercise expiry, leaves an Exec's egress, drop counters and per-flow
// element state exactly as the bare walk on a counting Context leaves
// them.

const quickConfig = `
a :: FromNetfront(0);
b :: FromNetfront(1);
fw :: StatefulFirewall(allow udp, timeout 5);
fm :: FlowMeter;
o0 :: ToNetfront(0);
o1 :: ToNetfront(1);
a -> [0]fw;
b -> [1]fw;
fw[0] -> fm -> o0;
fw[1] -> o1;
`

// genSchedule derives a deterministic traffic schedule from one seed:
// one single-packet step per event; src 0 is outbound (policy side),
// src 1 an inbound reply under the reversed tuple.
func genSchedule(seed int64) []step {
	rng := rand.New(rand.NewSource(seed))
	nflows := 2 + rng.Intn(14)
	flows := make([]packet.FiveTuple, nflows)
	for i := range flows {
		proto := packet.ProtoUDP
		if rng.Intn(4) == 0 {
			proto = packet.ProtoTCP // violates the allow-udp policy
		}
		flows[i] = packet.FiveTuple{
			SrcIP:    0x0a000000 + uint32(rng.Intn(1<<16)),
			DstIP:    0xc0000200 + uint32(rng.Intn(8)),
			SrcPort:  uint16(1024 + rng.Intn(4096)),
			DstPort:  uint16(80 + rng.Intn(4)),
			Protocol: proto,
		}
	}
	n := 20 + rng.Intn(100)
	steps := make([]step, 0, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		// Occasionally jump past the 5ns firewall timeout so replay
		// hits expired state.
		if rng.Intn(10) == 0 {
			now += 4 + int64(rng.Intn(8))
		} else {
			now += int64(rng.Intn(2))
		}
		f := flows[rng.Intn(nflows)]
		pk := &packet.Packet{TTL: 64, Payload: []byte("q")}
		src := 0
		if rng.Intn(3) == 0 {
			src = 1
			f = f.Reverse()
		}
		pk.SrcIP, pk.DstIP = f.SrcIP, f.DstIP
		pk.SrcPort, pk.DstPort = f.SrcPort, f.DstPort
		pk.Protocol = f.Protocol
		steps = append(steps, step{src: src, pkts: []*packet.Packet{pk}, now: now})
	}
	return steps
}

func TestQuickStatefulScheduleDifferential(t *testing.T) {
	prop := func(seed int64) bool {
		steps := genSchedule(seed)
		gr, cr, _ := differential(t, quickConfig, steps)
		gfw, cfw := gr.Element("fw").(*elements.StatefulFirewall), cr.Element("fw").(*elements.StatefulFirewall)
		gfm, cfm := gr.Element("fm").(*elements.FlowMeter), cr.Element("fm").(*elements.FlowMeter)
		for _, s := range steps {
			tup := s.pkts[0].Tuple()
			if s.src == 1 {
				tup = tup.Reverse() // firewall state is keyed by the forward tuple
			}
			gls, gok := gfw.LastSeen(tup)
			cls, cok := cfw.LastSeen(tup)
			if gok != cok || gls != cls {
				t.Logf("seed=%d flow=%v firewall last-seen: graph=(%d,%v) exec=(%d,%v)", seed, tup, gls, gok, cls, cok)
				return false
			}
			gp, gb, gok := gfm.Stats(tup)
			cp, cb, cok := cfm.Stats(tup)
			if gok != cok || gp != cp || gb != cb {
				t.Logf("seed=%d flow=%v meter: graph=(%d,%d,%v) exec=(%d,%d,%v)", seed, tup, gp, gb, gok, cp, cb, cok)
				return false
			}
		}
		if gfw.ActiveFlows() != cfw.ActiveFlows() || gfm.Flows() != cfm.Flows() {
			t.Logf("seed=%d totals: graph active=%d metered=%d exec active=%d metered=%d",
				seed, gfw.ActiveFlows(), gfm.Flows(), cfw.ActiveFlows(), cfm.Flows())
			return false
		}
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(0x17e7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
