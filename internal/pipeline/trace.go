package pipeline

import (
	"math/bits"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// AffinityHash maps a five-tuple and its exact reverse to the same
// 64-bit hash: the two endpoints are order-normalized before mixing,
// then spread with the same Fibonacci multiplier the vswitch shard
// hash uses. Symmetry keeps trace sampling per-connection: a flow and
// its replies (which stateful elements look up under the reversed
// tuple) are sampled together or not at all.
func AffinityHash(t packet.FiveTuple) uint64 {
	a := uint64(t.SrcIP)<<16 | uint64(t.SrcPort)
	b := uint64(t.DstIP)<<16 | uint64(t.DstPort)
	if a > b {
		a, b = b, a
	}
	h := a ^ bits.RotateLeft64(b, 23) ^ uint64(t.Protocol)<<56
	return h * 0x9e3779b97f4a7c15
}

// EnablePathTrace arms flow-sampled path tracing: the head packet of
// each injected batch is hashed with AffinityHash, and a packet whose
// flow lands on the 1-in-every residue is walked with the Context's
// PathHook recording one PathHop per step into ring. every <= 0
// selects telemetry.DefaultTraceEvery. Call before the first Run; the
// Exec's owner goroutine must not be running it concurrently.
//
// Hashing only the batch head keeps the attached-but-unsampled cost
// to one hash per batch instead of one per packet; per-packet delivery
// paths (RunOne) make every packet a head. Sampling stays
// deterministic per flow: a flow whose hash misses the residue is
// never traced, one that matches is traced whenever it heads a batch.
func (x *Exec) EnablePathTrace(ring *telemetry.PathRing, every int) {
	x.ptRing = ring
	if every <= 0 {
		every = telemetry.DefaultTraceEvery
	}
	x.ptEvery = every
	x.ptHook = x.hop
}

// traced walks a sampled packet with the hop recorder armed and
// commits its trace under the flow's hash.
func (x *Exec) traced(hash uint64, src int, pk *packet.Packet) error {
	x.ptPkt, x.ptHops = pk, x.ptHops[:0]
	x.ctx.PathHook = x.ptHook
	err := x.router.Inject(&x.ctx, src, pk)
	x.ctx.PathHook, x.ptPkt = nil, nil
	x.ptRing.Put(telemetry.PathTrace{
		FlowHash: hash,
		Hops:     append([]telemetry.PathHop(nil), x.ptHops...),
	})
	return err
}

// hop records one step of the traced packet; Tee copies walking
// beside it are not part of its path.
func (x *Exec) hop(elem string, in, out int, v click.Verdict, pk *packet.Packet) {
	if pk != x.ptPkt {
		return
	}
	x.ptHops = append(x.ptHops, telemetry.PathHop{
		Elem: elem, InPort: in, OutPort: out, Verdict: v.String(),
	})
}
