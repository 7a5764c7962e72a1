package vswitch

import (
	"fmt"
	"testing"

	"github.com/in-net/innet/internal/packet"
)

func sinkPkt(f uint32, i int, mod uint32) *packet.Packet {
	return &packet.Packet{
		SrcIP: 0x0a000000 + f, DstIP: mod,
		SrcPort: uint16(1000 + f), DstPort: 80,
		Protocol: packet.ProtoUDP, TTL: 64, UserID: f,
		Payload: []byte(fmt.Sprintf("f%d-p%d", f, i)),
	}
}

func twoModuleSwitch(t *testing.T, shards int) *Switch {
	t.Helper()
	s := NewSharded(shards)
	s.Install(Rule{Priority: 1, Match: Match{DstIP: 0xc0000201}, Action: ActToModule, Module: 0xc0000201})
	s.Install(Rule{Priority: 1, Match: Match{DstIP: 0xc0000202}, Action: ActToModule, Module: 0xc0000202})
	return s
}

// TestToModuleBatchEquivalence checks the batch sink sees exactly the
// per-module packet sequence the per-packet sink would, for both the
// single-packet and batched entry points.
func TestToModuleBatchEquivalence(t *testing.T) {
	mkBurst := func() []*packet.Packet {
		var pkts []*packet.Packet
		for i := 0; i < 12; i++ {
			for f := uint32(0); f < 5; f++ {
				mod := uint32(0xc0000201)
				if f%2 == 1 {
					mod = 0xc0000202
				}
				pkts = append(pkts, sinkPkt(f, i, mod))
			}
		}
		return pkts
	}

	perModule := func(s *Switch, batched bool) map[uint32][]string {
		got := make(map[uint32][]string)
		s.ToModule = nil
		s.ToModuleBatch = nil
		if batched {
			s.ToModuleBatch = func(mod uint32, pkts []*packet.Packet) {
				if len(pkts) == 0 {
					t.Error("empty batch delivered")
				}
				for _, p := range pkts {
					got[mod] = append(got[mod], string(p.Payload))
				}
			}
		} else {
			s.ToModule = func(mod uint32, p *packet.Packet) {
				got[mod] = append(got[mod], string(p.Payload))
			}
		}
		s.ProcessBatch(mkBurst())
		for _, p := range mkBurst()[:7] { // some single-packet traffic too
			s.Process(p)
		}
		return got
	}

	for _, shards := range []int{1, 4} {
		ref := perModule(twoModuleSwitch(t, shards), false)
		got := perModule(twoModuleSwitch(t, shards), true)
		if len(ref) != 2 || len(got) != 2 {
			t.Fatalf("shards=%d: modules ref=%d got=%d", shards, len(ref), len(got))
		}
		for mod, want := range ref {
			if len(got[mod]) != len(want) {
				t.Fatalf("shards=%d module %x: %d pkts, want %d", shards, mod, len(got[mod]), len(want))
			}
			for i := range want {
				if got[mod][i] != want[i] {
					t.Fatalf("shards=%d module %x pkt %d: got %q want %q",
						shards, mod, i, got[mod][i], want[i])
				}
			}
		}
	}
}

// TestToModuleBatchPrecedence: when both sinks are set, only the batch
// sink fires.
func TestToModuleBatchPrecedence(t *testing.T) {
	s := twoModuleSwitch(t, 1)
	var single, batched int
	s.ToModule = func(mod uint32, p *packet.Packet) { single++ }
	s.ToModuleBatch = func(mod uint32, pkts []*packet.Packet) { batched += len(pkts) }
	s.ProcessBatch([]*packet.Packet{sinkPkt(0, 0, 0xc0000201), sinkPkt(2, 0, 0xc0000201)})
	s.Process(sinkPkt(0, 1, 0xc0000201))
	if single != 0 || batched != 3 {
		t.Fatalf("single=%d batched=%d, want 0/3", single, batched)
	}
}

// TestToModuleBatchOutageReplay: packets buffered during an outage
// replay through the batch sink in per-flow order on recovery.
func TestToModuleBatchOutageReplay(t *testing.T) {
	s := twoModuleSwitch(t, 4)
	got := make(map[uint32][]string)
	s.ToModuleBatch = func(mod uint32, pkts []*packet.Packet) {
		for _, p := range pkts {
			got[p.UserID] = append(got[p.UserID], string(p.Payload))
		}
	}

	want := make(map[uint32][]string)
	push := func(i int) {
		for f := uint32(0); f < 6; f++ {
			mod := uint32(0xc0000201)
			if f%2 == 1 {
				mod = 0xc0000202
			}
			pk := sinkPkt(f, i, mod)
			want[f] = append(want[f], string(pk.Payload))
			s.ProcessBatch([]*packet.Packet{pk})
		}
	}

	push(0)
	s.SetDown(true)
	push(1)
	push(2)
	if s.Buffered() != 12 {
		t.Fatalf("buffered %d, want 12", s.Buffered())
	}
	s.SetDown(false)
	push(3)

	for f := uint32(0); f < 6; f++ {
		if len(got[f]) != len(want[f]) {
			t.Fatalf("flow %d: %d delivered, want %d", f, len(got[f]), len(want[f]))
		}
		for i := range want[f] {
			if got[f][i] != want[f][i] {
				t.Fatalf("flow %d pkt %d: got %q want %q", f, i, got[f][i], want[f][i])
			}
		}
	}
	if s.Redispatched() != 12 {
		t.Fatalf("redispatched %d, want 12", s.Redispatched())
	}
}

// TestProcessBatchDoesNotAllocate: once the flows are known and a run
// buffer is pooled, a burst into a sink that does not retain the slice
// allocates nothing.
func TestProcessBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := twoModuleSwitch(t, 4)
	var got int
	s.ToModuleBatch = func(mod uint32, pkts []*packet.Packet) { got += len(pkts) }
	var burst []*packet.Packet
	for i := 0; i < 8; i++ {
		for f := uint32(0); f < 4; f++ {
			mod := uint32(0xc0000201)
			if i%2 == 1 {
				mod = 0xc0000202
			}
			burst = append(burst, sinkPkt(f, i, mod))
		}
	}
	s.ProcessBatch(burst) // learns the flows
	if allocs := testing.AllocsPerRun(100, func() { s.ProcessBatch(burst) }); allocs != 0 {
		t.Fatalf("ProcessBatch allocated %.1f times per burst", allocs)
	}
	if want := 102 * len(burst); got != want {
		t.Fatalf("sink saw %d packets, want %d", got, want)
	}
}
