package vswitch

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/in-net/innet/internal/packet"
)

// Property tests for the sharded dispatch path: sharding must be
// invisible per flow. Packets carry (flow, seq) in their payload so
// the delivery callbacks can audit ordering without trusting the
// switch's own bookkeeping.

func flowPacket(flow, seq int, dst uint32) *packet.Packet {
	return &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("8.8.8.8"),
		DstIP:    dst,
		SrcPort:  uint16(1024 + flow),
		DstPort:  1500, TTL: 64,
		Payload: []byte{byte(flow), byte(seq >> 8), byte(seq)},
	}
}

func payloadFlowSeq(p *packet.Packet) (int, int) {
	return int(p.Payload[0]), int(p.Payload[1])<<8 | int(p.Payload[2])
}

// TestShardedPerFlowOrderQuick: under concurrent senders and random
// per-sender schedules, every flow's packets are delivered exactly
// once and in send order, and flow starts are detected exactly once
// per flow. Even-numbered senders call Process per packet and
// odd-numbered ones ProcessBatch, so both paths always race against
// each other into one batch sink (whose run buffers are pooled across
// callers). Run with -race in CI, this is also the data-race audit of
// the sharded path.
func TestShardedPerFlowOrderQuick(t *testing.T) {
	mod := packet.MustParseIP("198.51.100.10")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shards := []int{1, 2, 4, 8}[rng.Intn(4)]
		senders := 2 + rng.Intn(3)
		flowsPer := 1 + rng.Intn(3)
		perFlow := 20 + rng.Intn(60)
		batch := 1 + rng.Intn(8)

		s := NewSharded(shards)
		s.Install(Rule{Priority: 1, Match: Match{DstIP: mod}, Action: ActToModule, Module: mod})
		var mu sync.Mutex
		got := make(map[int][]int) // flow -> delivered seqs
		s.ToModuleBatch = func(_ uint32, pkts []*packet.Packet) {
			mu.Lock()
			for _, p := range pkts {
				flow, seq := payloadFlowSeq(p)
				got[flow] = append(got[flow], seq)
			}
			mu.Unlock()
		}

		var wg sync.WaitGroup
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each sender owns its flows and interleaves them in a
				// random but per-flow-ordered schedule.
				seqs := make([]int, flowsPer)
				r := rand.New(rand.NewSource(int64(w)*7919 + 1))
				var pending []*packet.Packet
				for sent := 0; sent < flowsPer*perFlow; sent++ {
					fl := r.Intn(flowsPer)
					for seqs[fl] >= perFlow {
						fl = (fl + 1) % flowsPer
					}
					flowID := w*flowsPer + fl
					pk := flowPacket(flowID, seqs[fl], mod)
					seqs[fl]++
					if w%2 == 0 {
						s.Process(pk)
						continue
					}
					if pending = append(pending, pk); len(pending) == batch {
						s.ProcessBatch(pending)
						pending = pending[:0]
					}
				}
				s.ProcessBatch(pending)
			}(w)
		}
		wg.Wait()

		totalFlows := senders * flowsPer
		if len(got) != totalFlows {
			t.Logf("seed %d: %d flows delivered, want %d", seed, len(got), totalFlows)
			return false
		}
		for flow, seqs := range got {
			if len(seqs) != perFlow {
				t.Logf("seed %d: flow %d delivered %d packets, want %d", seed, flow, len(seqs), perFlow)
				return false
			}
			for i, seq := range seqs {
				if seq != i {
					t.Logf("seed %d: flow %d out of order at %d: got seq %d", seed, flow, i, seq)
					return false
				}
			}
		}
		if int(s.NewFlows()) != totalFlows {
			t.Logf("seed %d: NewFlows = %d, want %d", seed, s.NewFlows(), totalFlows)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMatchesSingleLockQuick: the same random packet sequence,
// applied sequentially, produces identical per-flow delivery and
// identical counters on the single-shard switch and a sharded one —
// including across a down/up cycle (buffer replay).
func TestShardedMatchesSingleLockQuick(t *testing.T) {
	mod := packet.MustParseIP("198.51.100.10")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flows := 1 + rng.Intn(6)
		n := 40 + rng.Intn(120)
		downAt, upAt := -1, -1
		if rng.Intn(2) == 0 {
			downAt = rng.Intn(n)
			upAt = downAt + rng.Intn(n-downAt)
		}

		runOne := func(s *Switch) (map[int][]int, []uint64) {
			s.Install(Rule{Priority: 1, Match: Match{DstIP: mod}, Action: ActToModule, Module: mod})
			got := make(map[int][]int)
			s.ToModule = func(_ uint32, p *packet.Packet) {
				flow, seq := payloadFlowSeq(p)
				got[flow] = append(got[flow], seq)
			}
			r := rand.New(rand.NewSource(seed + 1))
			seqs := make([]int, flows)
			for i := 0; i < n; i++ {
				if i == downAt {
					s.SetDown(true)
				}
				if i == upAt {
					s.SetDown(false)
				}
				fl := r.Intn(flows)
				s.Process(flowPacket(fl, seqs[fl], mod))
				seqs[fl]++
			}
			s.SetDown(false) // drain any remaining buffer
			return got, []uint64{s.Misses(), s.NewFlows(), s.DroppedDown(), s.Redispatched()}
		}

		gotSingle, countersSingle := runOne(New())
		gotSharded, countersSharded := runOne(NewSharded(4))

		for i := range countersSingle {
			if countersSingle[i] != countersSharded[i] {
				t.Logf("seed %d: counter %d: single=%d sharded=%d", seed, i, countersSingle[i], countersSharded[i])
				return false
			}
		}
		if len(gotSingle) != len(gotSharded) {
			t.Logf("seed %d: flow sets differ: %d vs %d", seed, len(gotSingle), len(gotSharded))
			return false
		}
		for flow, seqs := range gotSingle {
			other := gotSharded[flow]
			if len(seqs) != len(other) {
				t.Logf("seed %d: flow %d: single delivered %d, sharded %d", seed, flow, len(seqs), len(other))
				return false
			}
			for i := range seqs {
				if seqs[i] != other[i] {
					t.Logf("seed %d: flow %d diverges at %d: single seq %d, sharded seq %d", seed, flow, i, seqs[i], other[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestProcessBatchMatchesProcessQuick: ProcessBatch is Process called
// in batch order — same deliveries, same counters.
func TestProcessBatchMatchesProcessQuick(t *testing.T) {
	mod := packet.MustParseIP("198.51.100.10")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flows := 1 + rng.Intn(6)
		n := 30 + rng.Intn(100)
		batch := 1 + rng.Intn(16)

		build := func() []*packet.Packet {
			r := rand.New(rand.NewSource(seed + 2))
			seqs := make([]int, flows)
			pkts := make([]*packet.Packet, n)
			for i := range pkts {
				fl := r.Intn(flows)
				pkts[i] = flowPacket(fl, seqs[fl], mod)
				seqs[fl]++
			}
			return pkts
		}
		runOne := func(s *Switch, batched bool) (map[int][]int, []uint64) {
			s.Install(Rule{Priority: 1, Match: Match{DstIP: mod}, Action: ActToModule, Module: mod})
			got := make(map[int][]int)
			s.ToModule = func(_ uint32, p *packet.Packet) {
				flow, seq := payloadFlowSeq(p)
				got[flow] = append(got[flow], seq)
			}
			pkts := build()
			if batched {
				for i := 0; i < len(pkts); i += batch {
					end := i + batch
					if end > len(pkts) {
						end = len(pkts)
					}
					s.ProcessBatch(pkts[i:end])
				}
			} else {
				for _, p := range pkts {
					s.Process(p)
				}
			}
			return got, []uint64{s.Misses(), s.NewFlows(), s.DroppedDown(), s.Redispatched()}
		}

		gotSeq, cSeq := runOne(NewSharded(4), false)
		gotBat, cBat := runOne(NewSharded(4), true)
		for i := range cSeq {
			if cSeq[i] != cBat[i] {
				t.Logf("seed %d: counter %d: seq=%d batch=%d", seed, i, cSeq[i], cBat[i])
				return false
			}
		}
		for flow, seqs := range gotSeq {
			other := gotBat[flow]
			if len(seqs) != len(other) {
				t.Logf("seed %d: flow %d: seq delivered %d, batch %d", seed, flow, len(seqs), len(other))
				return false
			}
			for i := range seqs {
				if seqs[i] != other[i] {
					t.Logf("seed %d: flow %d diverges at %d", seed, flow, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
