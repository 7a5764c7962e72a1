package pipeline

import (
	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// EnablePathTrace arms flow-sampled path tracing: the head packet of
// each injected batch is hashed with AffinityHash, and a packet whose
// flow lands on the 1-in-every residue is run with hop recording — the
// same executor, appending one PathHop per step — into ring. every <= 0
// selects telemetry.DefaultTraceEvery. Call before the first Run; the
// Exec's owner goroutine must not be running it concurrently.
//
// Hashing only the batch head keeps the attached-but-unsampled cost
// to one hash per batch instead of one per packet; flow-affinity
// dispatch rotates flows through the head slot, and per-packet
// delivery paths (RunOne) make every packet a head. Sampling stays
// deterministic per flow: a flow whose hash misses the residue is
// never traced, one that matches is traced whenever it heads a batch.
func (x *Exec) EnablePathTrace(ring *telemetry.PathRing, every int) {
	x.ptRing = ring
	if every <= 0 {
		every = telemetry.DefaultTraceEvery
	}
	x.ptEvery = every
}

// runSampled applies the sampling rule to a batch-head packet: if its
// flow is sampled it runs the packet with hop recording, commits the
// trace and returns true; otherwise it leaves the packet to the caller.
func (x *Exec) runSampled(st *stage, pk *packet.Packet) bool {
	hash := AffinityHash(pk.Tuple())
	if !telemetry.Sampled(hash, x.ptEvery) {
		return false
	}
	x.ptHops = x.ptHops[:0]
	x.run(st, 0, pk, true)
	x.ptRing.Put(telemetry.PathTrace{
		FlowHash:  hash,
		Dataplane: "pipeline",
		Hops:      append([]telemetry.PathHop(nil), x.ptHops...),
	})
	return true
}

// hop records one step of the traced packet.
func (x *Exec) hop(st *stage, in, out int, v click.Verdict) {
	x.ptHops = append(x.ptHops, telemetry.PathHop{
		Elem: st.name, InPort: in, OutPort: out, Verdict: v.String(),
	})
}
