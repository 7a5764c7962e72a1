package platform

import (
	"strconv"
	"sync"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// record emits a flight-recorder event when a recorder is attached.
func (p *Platform) record(typ, detail, ref string) {
	if p.Rec != nil {
		p.Rec.Record(typ, "platform", detail, ref)
	}
}

// vmRef names a guest for flight-recorder events: the first hosted
// module address, falling back to the VM id for empty guests.
func vmRef(vm *VM) string {
	if len(vm.Specs) > 0 {
		return packet.IPString(vm.Specs[0].Addr)
	}
	return "vm-" + strconv.Itoa(vm.ID)
}

// traceEveryFor resolves a module's path-trace sampling rate: the spec
// knob wins over the platform default, 0 means
// telemetry.DefaultTraceEvery, and a negative value (at either level)
// disables tracing, reported here as 0.
func (p *Platform) traceEveryFor(spec *ModuleSpec) int {
	e := p.TraceEvery
	if spec != nil && spec.TraceEvery != 0 {
		e = spec.TraceEvery
	}
	if e == 0 {
		e = telemetry.DefaultTraceEvery
	}
	if e < 0 {
		return 0
	}
	return e
}

// pathRing returns (creating on first use) the module's trace ring.
// Rings are keyed by module address on the platform, not on the VM, so
// captured paths survive crash/respawn and eviction churn.
func (p *Platform) pathRing(addr uint32) *telemetry.PathRing {
	if p.pathRings == nil {
		p.pathRings = make(map[uint32]*telemetry.PathRing)
	}
	r := p.pathRings[addr]
	if r == nil {
		r = telemetry.NewPathRing(telemetry.DefaultPathRing, nil)
		p.pathRings[addr] = r
	}
	return r
}

// PathTraces returns the most recent sampled path traces captured for
// a module, newest first (nil if nothing was sampled yet).
func (p *Platform) PathTraces(addr uint32, n int) []telemetry.PathTrace {
	if r := p.pathRings[addr]; r != nil {
		return r.Recent(n)
	}
	return nil
}

// PipelineDrops sums the per-reason drop counters of every module's
// Exec on the platform (live plus retired), indexed by
// click.DropReason; monotonic like PipelineCounters.
func (p *Platform) PipelineDrops() [click.NumDropReasons]uint64 {
	out := p.pipelineRetiredBy
	for _, vm := range p.vms {
		for _, x := range vm.execs {
			for i, n := range x.DropsBy {
				out[i] += n
			}
		}
	}
	return out
}

// RegisterDrops wires the platform's drop counters into the unified
// drop-attribution hub: datapath drops under site "platform" (same
// reason names as innet_platform_dropped_total) and drops inside
// modules under site "pipeline" split by click.DropReason. Reads
// happen at scrape time under the supplied lock (nil when the caller
// guarantees exclusion). Multiple platforms may register; the hub sums
// them into one series per (site, reason).
func (p *Platform) RegisterDrops(d *telemetry.Drops, lock sync.Locker) {
	if d == nil {
		return
	}
	read := func(f func() uint64) func() uint64 {
		if lock == nil {
			return f
		}
		return func() uint64 {
			lock.Lock()
			defer lock.Unlock()
			return f()
		}
	}
	sources := []struct {
		reason string
		v      *uint64
	}{
		{"no_module", &p.DroppedNoModule},
		{"no_memory", &p.DroppedNoMemory},
		{"buffer_full", &p.DroppedBufferFull},
		{"timeout", &p.DroppedTimeout},
		{"down", &p.DroppedDown},
		{"in_flight", &p.DroppedInFlight},
	}
	for _, s := range sources {
		v := s.v
		d.Source("platform", s.reason, read(func() uint64 { return *v }))
	}
	for i, name := range click.DropReasonNames() {
		i := i
		d.Source("pipeline", name, read(func() uint64 { return p.PipelineDrops()[i] }))
	}
}
