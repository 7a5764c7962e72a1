package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/packet"
)

// burstSize is the number of packets handed to ProcessBatch at once —
// the default NIC burst the repo's dataplane benches use.
const burstSize = 32

// family is one kind of tenant module in the packet workloads. Each
// family exercises a different kernel of the compiled pipeline (or,
// for the balancer, the graph-walk fallback).
type family int

const (
	famForward  family = iota // stateless CheckIPHeader→Paint→DecIPTTL→Counter
	famFirewall               // IPFilter rule list
	famNAT                    // IPRewriter forward mapping (grows per-flow state)
	famStateful               // StatefulFirewall outbound direction
	famSandbox                // controller.SandboxConfig wrapper with ChangeEnforcer
	famBalancer               // RoundRobinSwitch: order-dependent, forces graph-walk
)

func (f family) String() string {
	return [...]string{"forward", "firewall", "nat", "stateful", "sandbox", "balancer"}[f]
}

// pktParams shapes one packet workload.
type pktParams struct {
	Modules  int
	Flows    int
	Families []family
	// Sizes and SizeWeights give the IP-length mix (weights sum to 100).
	Sizes       []int
	SizeWeights []int
	// NewFlowEvery: one packet in this many comes from a never-seen
	// flow that replaces (and expires) a live one; 0 disables.
	NewFlowEvery int
	// ChurnEvery: every this many bursts one module is retired and a
	// fresh one of the same family registered at its address; 0 disables.
	ChurnEvery int
	// ExpiredTTLOneIn: one forward-family flow in this many carries
	// TTL 1 and must be dropped by DecIPTTL; 0 disables.
	ExpiredTTLOneIn int
}

// Workload constants; BENCHMARK.json and the README quote them.
var (
	pktForwardParams = pktParams{
		Modules: 1, Flows: 64, Families: []family{famForward},
		Sizes: []int{64}, SizeWeights: []int{100},
	}
	pktTenantsParams = pktParams{
		Modules: 64, Flows: 16384,
		Families:     []family{famForward, famFirewall, famNAT, famStateful, famSandbox, famBalancer},
		Sizes:        []int{64, 576, 1500},
		SizeWeights:  []int{40, 40, 20},
		NewFlowEvery: 100, ChurnEvery: 2048, ExpiredTTLOneIn: 16,
	}
)

// pktModule is one generated tenant module.
type pktModule struct {
	Fam    family
	Addr   uint32
	Config string
	// Generation parameters the hand-written expectation reads.
	Paint            uint8
	UDPPort, TCPPort uint16
	Server           uint32 // NAT target / sandbox whitelisted destination
	Variant          int    // sandbox: 0 mirror, 1 whitelisted forward, 2 forbidden forward
	Stateful         bool
}

// fate is what must happen to one packet of a flow: transmitted on an
// interface with these header fields, or dropped.
type fate struct {
	Tx           bool
	Iface        int8 // -1: either interface (balancer)
	Src, Dst     uint32
	Sport, Dport uint16
	TTL, Paint   uint8
	FlowTag      uint32
	Mod          int32
}

// matches compares a transmitted packet with the expectation.
func (f *fate) matches(iface int, p *packet.Packet) bool {
	return f.Tx && (f.Iface < 0 || int(f.Iface) == iface) &&
		p.SrcIP == f.Src && p.DstIP == f.Dst && p.SrcPort == f.Sport && p.DstPort == f.Dport &&
		p.TTL == f.TTL && p.Paint == f.Paint && p.FlowTag == f.FlowTag
}

// expect is the hand-written reference: what module m must do with
// packet p, derived from the element semantics in the paper (§3,
// Table 1) and not from running any dataplane. The setup cross-checks
// it against the graph-walk interpreter on the same packets.
func expect(m *pktModule, mod int, p *packet.Packet) fate {
	f := fate{Tx: true, Src: p.SrcIP, Dst: p.DstIP, Sport: p.SrcPort, Dport: p.DstPort,
		TTL: p.TTL, Mod: int32(mod)}
	switch m.Fam {
	case famForward:
		// CheckIPHeader passes any packet with TTL>0 and non-zero
		// addresses; DecIPTTL drops at TTL ≤ 1, else decrements.
		if p.TTL <= 1 {
			return fate{Mod: int32(mod)}
		}
		f.TTL = p.TTL - 1
		f.Paint = m.Paint
	case famFirewall:
		ok := (p.Protocol == packet.ProtoUDP && p.DstPort == m.UDPPort) ||
			(p.Protocol == packet.ProtoTCP && p.DstPort == m.TCPPort)
		if !ok || p.TTL <= 1 {
			return fate{Mod: int32(mod)}
		}
		f.TTL = p.TTL - 1
	case famNAT:
		f.Src, f.Dst = m.Addr, m.Server
	case famStateful:
		if p.Protocol != packet.ProtoUDP {
			return fate{Mod: int32(mod)}
		}
		f.FlowTag = 1
	case famSandbox:
		switch m.Variant {
		case 0: // mirror: reply to sender is implicitly authorized
			f.Src, f.Dst = p.DstIP, p.SrcIP
			f.Sport, f.Dport = p.DstPort, p.SrcPort
		case 1: // forward to the whitelisted server
			f.Dst = m.Server
		default: // forward to a destination nobody authorized: enforcer drops
			return fate{Mod: int32(mod)}
		}
	case famBalancer:
		f.Iface = -1
	}
	return f
}

// rng is a small xorshift64* generator: the schedule draws several
// numbers per packet inside the measured loop, so it must be cheap and
// must not allocate; math/rand's locked source is neither.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
	if r.s == 0 {
		r.s = 0x2545f4914f6cdd1d
	}
	for i := 0; i < 4; i++ {
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() >> 33 % uint64(n)) }

// pktFlow is one live five-tuple with its packet template and fate.
type pktFlow struct {
	Tmpl packet.Packet
	Fate fate
	Mod  int
	// epoch is the install epoch at which this flow last sent a packet;
	// a mismatch with the generator's epoch means the next packet
	// misses the vswitch flow cache (cold lookup).
	epoch uint64
}

// pktGen produces the packet workload from a seed. It is the only
// source of inputs for the packet path: module configurations, the
// flow table, and the per-burst schedule.
type pktGen struct {
	P       pktParams
	Modules []pktModule
	Flows   []pktFlow

	modRNG, flowRNG, schedRNG *rng
	payloads                  map[int][]byte
	nextSrc                   uint32

	// epoch advances on every rule install/remove (the vswitch flushes
	// its flow caches); cold counts packets that were the first of
	// their flow since the last flush.
	epoch uint64
	cold  uint64
	// newFlows counts flow replacements.
	newFlows uint64
}

const (
	moduleNetBase = 0x0ac80100 // 10.200.1.0: Platform1's pool in topology.PaperFig3
	clientBase    = 0x64400000 // 100.64.0.0/10: carrier-grade NAT space, never a module address
	serverBase    = 0xc0000200 // 192.0.2.0/24: tenant servers (TEST-NET-1, as in security.Table1)
	forbiddenDst  = 0xcb007163 // 203.0.113.99: the unauthorized destination of examples/quickstart
)

func newPktGen(seed int64, p pktParams) (*pktGen, error) {
	g := &pktGen{P: p,
		modRNG: newRNG(seed, 1), flowRNG: newRNG(seed, 2), schedRNG: newRNG(seed, 3),
		payloads: make(map[int][]byte), nextSrc: clientBase + 1}
	for _, sz := range p.Sizes {
		g.payloads[sz] = make([]byte, sz) // sliced per protocol below
	}
	g.Modules = make([]pktModule, p.Modules)
	for i := range g.Modules {
		m, err := g.genModule(i)
		if err != nil {
			return nil, err
		}
		g.Modules[i] = m
	}
	g.Flows = make([]pktFlow, p.Flows)
	for i := range g.Flows {
		g.Flows[i] = g.genFlow(g.flowRNG.intn(p.Modules))
	}
	return g, nil
}

// genModule draws a fresh module for slot i (address fixed by the
// slot, so a replacement reuses the retired module's address the way
// the controller's lowest-free allocation does).
func (g *pktGen) genModule(i int) (pktModule, error) {
	r := g.modRNG
	m := pktModule{
		Fam:     g.P.Families[i%len(g.P.Families)],
		Addr:    moduleNetBase + uint32(i) + 1,
		Paint:   uint8(1 + r.intn(250)),
		UDPPort: uint16(1024 + r.intn(30000)),
		TCPPort: uint16(1024 + r.intn(30000)),
		Server:  serverBase + uint32(1+r.intn(250)),
		// The sandbox variant follows the slot, not the seed, so every
		// seed (and every replacement) has the same share of packets
		// that the enforcer drops.
		Variant: (i / len(g.P.Families)) % 3,
	}
	switch m.Fam {
	case famForward:
		m.Config = fmt.Sprintf(`in :: FromNetfront();
chk :: CheckIPHeader();
pt :: Paint(%d);
ttl :: DecIPTTL();
cnt :: Counter();
out :: ToNetfront();
in -> chk -> pt -> ttl -> cnt -> out;
`, m.Paint)
	case famFirewall:
		m.Config = fmt.Sprintf(`in :: FromNetfront();
fw :: IPFilter(allow udp dst port %d, allow tcp dst port %d, deny all);
ttl :: DecIPTTL();
out :: ToNetfront();
in -> fw -> ttl -> out;
`, m.UDPPort, m.TCPPort)
	case famNAT:
		m.Stateful = true
		m.Config = fmt.Sprintf(`in :: FromNetfront();
nat :: IPRewriter(pattern %s - %s - 0 0);
out :: ToNetfront();
in -> nat -> out;
`, packet.IPString(m.Addr), packet.IPString(m.Server))
	case famStateful:
		m.Stateful = true
		m.Config = `in :: FromNetfront();
fw :: StatefulFirewall(allow udp);
out :: ToNetfront();
in -> fw -> out;
`
	case famSandbox:
		m.Stateful = true
		inner := `in :: FromNetfront();
f :: IPFilter(allow udp, allow tcp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`
		switch m.Variant {
		case 1:
			inner = fmt.Sprintf(`in :: FromNetfront();
fwd :: SetIPDst(%s);
out :: ToNetfront();
in -> fwd -> out;
`, packet.IPString(m.Server))
		case 2:
			inner = fmt.Sprintf(`in :: FromNetfront();
fwd :: SetIPDst(%s);
out :: ToNetfront();
in -> fwd -> out;
`, packet.IPString(forbiddenDst))
		}
		wrapped, err := controller.SandboxConfig(inner, []uint32{m.Server})
		if err != nil {
			return m, fmt.Errorf("sandbox module %d: %w", i, err)
		}
		m.Config = wrapped
	case famBalancer:
		m.Config = `in :: FromNetfront();
rr :: RoundRobinSwitch(2);
o0 :: ToNetfront(0);
o1 :: ToNetfront(1);
in -> rr;
rr[0] -> o0;
rr[1] -> o1;
`
	}
	return m, nil
}

// genFlow draws a never-seen five-tuple aimed at module mod. Source
// addresses are handed out sequentially so no two flows ever collide.
func (g *pktGen) genFlow(mod int) pktFlow {
	r := g.flowRNG
	m := &g.Modules[mod]
	size := g.P.Sizes[0]
	if pick := r.intn(100); len(g.P.Sizes) > 1 {
		for i, w := range g.P.SizeWeights {
			if pick < w {
				size = g.P.Sizes[i]
				break
			}
			pick -= w
		}
	}
	p := packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    g.nextSrc, DstIP: m.Addr,
		SrcPort: uint16(1024 + r.intn(60000)), DstPort: uint16(1024 + r.intn(60000)),
		TTL: 64,
	}
	g.nextSrc++
	hdr := 28 // IPv4 + UDP
	if r.intn(10) < 3 {
		p.Protocol, p.TCPFlags, hdr = packet.ProtoTCP, packet.TCPAck, 40
	}
	p.Payload = g.payloads[size][:size-hdr]
	switch m.Fam {
	case famFirewall:
		// Three flows in four aim at the port the tenant opened.
		if r.intn(4) != 0 {
			p.DstPort = m.UDPPort
			if p.Protocol == packet.ProtoTCP {
				p.DstPort = m.TCPPort
			}
		}
	case famForward:
		if g.P.ExpiredTTLOneIn > 0 && r.intn(g.P.ExpiredTTLOneIn) == 0 {
			p.TTL = 1
		}
	}
	return pktFlow{Tmpl: p, Fate: expect(m, mod, &p), Mod: mod}
}

// fill writes the next burst into slots (whose UserID is their index)
// and the fate each packet must meet into fates (by value: a later
// slot of the same burst may replace the flow). retire is called with
// the tuple of every flow that is replaced by a new one.
func (g *pktGen) fill(slots []*packet.Packet, fates []fate, retire func(packet.FiveTuple)) {
	for i, s := range slots {
		fi := g.schedRNG.intn(len(g.Flows))
		if g.P.NewFlowEvery > 0 && g.schedRNG.intn(g.P.NewFlowEvery) == 0 {
			old := g.Flows[fi].Tmpl.Tuple()
			g.Flows[fi] = g.genFlow(g.Flows[fi].Mod)
			g.newFlows++
			if retire != nil {
				retire(old)
			}
		}
		f := &g.Flows[fi]
		if f.epoch != g.epoch+1 {
			f.epoch = g.epoch + 1
			g.cold++
		}
		*s = f.Tmpl
		s.UserID = uint32(i)
		fates[i] = f.Fate
	}
}

// replaceModule retires the module in a slot chosen by the schedule
// and draws its successor; every flow aimed at the slot gets the new
// module's fate. It returns the slot.
func (g *pktGen) replaceModule() (int, error) {
	slot := g.schedRNG.intn(len(g.Modules))
	m, err := g.genModule(slot)
	if err != nil {
		return slot, err
	}
	g.Modules[slot] = m
	for i := range g.Flows {
		if f := &g.Flows[i]; f.Mod == slot {
			f.Fate = expect(&g.Modules[slot], slot, &f.Tmpl)
		}
	}
	return slot, nil
}

// flushed notes that the vswitch dropped its flow caches.
func (g *pktGen) flushed() { g.epoch++ }

// inputHash digests everything the packet path will be fed: the
// parameters, every module configuration, the flow table, and the
// first scheduleHashBursts bursts of the schedule. Computed on a fresh
// generator so it does not disturb the one being measured.
const scheduleHashBursts = 256

func pktInputHash(seed int64, p pktParams) (string, error) {
	g, err := newPktGen(seed, p)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", p)
	for _, m := range g.Modules {
		fmt.Fprintf(h, "%d %d %s\n", m.Fam, m.Addr, m.Config)
	}
	for i := range g.Flows {
		hashPacket(h, &g.Flows[i].Tmpl)
	}
	slots := make([]*packet.Packet, burstSize)
	for i := range slots {
		slots[i] = new(packet.Packet)
	}
	fates := make([]fate, burstSize)
	for b := 0; b < scheduleHashBursts; b++ {
		g.fill(slots, fates, nil)
		for _, s := range slots {
			hashPacket(h, s)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashPacket(h hash.Hash, p *packet.Packet) {
	var b [20]byte
	binary.BigEndian.PutUint32(b[0:], p.SrcIP)
	binary.BigEndian.PutUint32(b[4:], p.DstIP)
	binary.BigEndian.PutUint16(b[8:], p.SrcPort)
	binary.BigEndian.PutUint16(b[10:], p.DstPort)
	b[12], b[13], b[14] = byte(p.Protocol), p.TTL, p.TCPFlags
	binary.BigEndian.PutUint32(b[16:], uint32(len(p.Payload)))
	h.Write(b[:])
}
