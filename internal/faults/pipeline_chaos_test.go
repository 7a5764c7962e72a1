package faults

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/vswitch"
)

// The module chain behind the switch: validation, TTL, accounting —
// all flattenable, with real per-packet state (Counter, DecIPTTL).
const pipelineChaosChain = `
in :: FromNetfront();
chk :: CheckIPHeader;
ttl :: DecIPTTL;
cnt :: Counter;
out :: ToNetfront();
d :: Discard;
in -> chk -> ttl -> cnt -> out;
chk[1] -> d;
ttl[1] -> d;
`

const pipelineChaosModule = uint32(0xc0000205)

// chaosEgress records per-flow egress sequences.
type chaosEgress map[uint32][]string

func (r chaosEgress) record(iface int, p *packet.Packet) {
	r[p.UserID] = append(r[p.UserID], fmt.Sprintf("i%d ttl=%d %s", iface, p.TTL, p.Payload))
}

// pipelineChaosSchedule builds a seeded traffic/outage script: bursts
// of flow-tagged packets with a platform outage opening mid-burst and
// closing a few bursts later, leaving the switch to buffer and replay.
type chaosEvent struct {
	pkts []*packet.Packet // nil for down/up events
	down bool
	up   bool
}

func pipelineChaosSchedule(seed int64) []chaosEvent {
	rng := rand.New(rand.NewSource(seed))
	nflows := 3 + rng.Intn(6)
	bursts := 8 + rng.Intn(6)
	downAt := 1 + rng.Intn(bursts-3)
	upAt := downAt + 1 + rng.Intn(bursts-downAt-1)
	var ev []chaosEvent
	seq := make([]int, nflows)
	burstPkts := func() []*packet.Packet {
		var pkts []*packet.Packet
		n := 4 + rng.Intn(13)
		for i := 0; i < n; i++ {
			f := uint32(rng.Intn(nflows))
			pkts = append(pkts, &packet.Packet{
				SrcIP: 0x0a000100 + f, DstIP: pipelineChaosModule,
				SrcPort: uint16(2000 + f), DstPort: 443,
				Protocol: packet.ProtoUDP,
				TTL:      uint8(1 + rng.Intn(5)), // some expire in DecIPTTL
				UserID:   f,
				Payload:  []byte(fmt.Sprintf("f%d-p%d", f, seq[f])),
			})
			seq[f]++
		}
		return pkts
	}
	for b := 0; b < bursts; b++ {
		if b == downAt {
			// Outage opens mid-burst: the first half dispatches, the
			// rest (and the following bursts) hit the down switch and
			// buffer.
			pk := burstPkts()
			half := len(pk) / 2
			ev = append(ev, chaosEvent{pkts: pk[:half]}, chaosEvent{down: true}, chaosEvent{pkts: pk[half:]})
			continue
		}
		if b == upAt {
			ev = append(ev, chaosEvent{up: true})
		}
		ev = append(ev, chaosEvent{pkts: burstPkts()})
	}
	if upAt >= bursts {
		ev = append(ev, chaosEvent{up: true})
	}
	return ev
}

// runPipelineChaosGraph replays the schedule through the per-packet
// sink and the ordinary graph walk (the reference semantics).
func runPipelineChaosGraph(t *testing.T, sched []chaosEvent) (map[uint32][]string, *elements.Counter) {
	t.Helper()
	r := click.MustBuildString(pipelineChaosChain)
	eg := chaosEgress{}
	ctx := &click.Context{Transmit: eg.record}
	s := vswitch.NewSharded(4)
	s.Install(vswitch.Rule{Priority: 1, Match: vswitch.Match{DstIP: pipelineChaosModule},
		Action: vswitch.ActToModule, Module: pipelineChaosModule})
	s.ToModule = func(mod uint32, p *packet.Packet) {
		_ = r.Inject(ctx, 0, p)
	}
	for _, e := range sched {
		switch {
		case e.down:
			s.SetDown(true)
		case e.up:
			s.SetDown(false)
		default:
			s.ProcessBatch(e.pkts)
		}
	}
	return eg, r.Element("cnt").(*elements.Counter)
}

// runPipelineChaosExec replays the same schedule in pipeline mode: the
// switch's batch sink feeds one Exec.
func runPipelineChaosExec(t *testing.T, sched []chaosEvent) (map[uint32][]string, *elements.Counter) {
	t.Helper()
	prog, err := pipeline.CompileConfig(pipelineChaosChain)
	if err != nil {
		t.Fatal(err)
	}
	eg := chaosEgress{}
	x := pipeline.NewExec(prog)
	x.Transmit = eg.record
	s := vswitch.NewSharded(4)
	s.Install(vswitch.Rule{Priority: 1, Match: vswitch.Match{DstIP: pipelineChaosModule},
		Action: vswitch.ActToModule, Module: pipelineChaosModule})
	s.ToModuleBatch = func(mod uint32, pkts []*packet.Packet) {
		if err := x.Run(0, pkts); err != nil {
			t.Error(err)
		}
	}
	for _, e := range sched {
		switch {
		case e.down:
			s.SetDown(true)
		case e.up:
			s.SetDown(false)
		default:
			s.ProcessBatch(e.pkts)
		}
	}
	return eg, prog.Element("cnt").(*elements.Counter)
}

// TestChaosPipelineOutageReplay drives seeded outage schedules through
// graph-walk and compiled-pipeline modes and requires identical
// per-flow egress (payload order and TTL rewrites) and element state.
// The switch buffers during the outage, which opens mid-batch, and
// replays on recovery in both modes; the batched pipeline path must
// preserve that per-flow story.
func TestChaosPipelineOutageReplay(t *testing.T) {
	seeds := []int64{1, 7, 23, 51, 94}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Same seed, fresh packet objects per run: both modes
			// mutate the packets they carry (DecIPTTL).
			wantFlows, wantCnt := runPipelineChaosGraph(t, pipelineChaosSchedule(seed))
			gotFlows, gotCnt := runPipelineChaosExec(t, pipelineChaosSchedule(seed))

			if len(gotFlows) != len(wantFlows) {
				t.Fatalf("flows: got %d want %d", len(gotFlows), len(wantFlows))
			}
			for f, want := range wantFlows {
				got := gotFlows[f]
				if len(got) != len(want) {
					t.Fatalf("flow %d: %d egresses, want %d", f, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("flow %d egress %d: got %q want %q", f, i, got[i], want[i])
					}
				}
			}
			if gotCnt.Packets != wantCnt.Packets || gotCnt.Bytes != wantCnt.Bytes {
				t.Fatalf("counter: pipeline %d/%d, graph %d/%d", gotCnt.Packets, gotCnt.Bytes, wantCnt.Packets, wantCnt.Bytes)
			}
		})
	}
}
