package platform

import (
	"sync"

	"github.com/in-net/innet/internal/telemetry"
)

// RegisterMetrics folds the platform's VM-lifecycle and drop counters
// into a telemetry registry under the innet_platform_* families,
// labeled with the platform name. The Platform itself is not
// goroutine-safe (it is driven single-threaded by its simulator), so
// the caller supplies the lock that guards it — every callback reads
// under that lock at scrape time; nothing is added to the packet
// path. lock may be nil when the platform is only touched by the
// scraping goroutine (tests).
func (p *Platform) RegisterMetrics(r *telemetry.Registry, name string, lock sync.Locker) {
	if r == nil {
		return
	}
	read := func(f func() float64) func() float64 {
		if lock == nil {
			return f
		}
		return func() float64 {
			lock.Lock()
			defer lock.Unlock()
			return f()
		}
	}
	counters := []struct {
		suffix string
		help   string
		v      *uint64
	}{
		{"boots", "Guest VMs booted.", &p.Boots},
		{"suspends", "Guest VMs suspended.", &p.Suspends},
		{"resumes", "Guest VMs resumed.", &p.Resumes},
		{"destroys", "Guest VMs destroyed.", &p.Destroys},
		{"crashes", "Guest VM crashes (injected or organic).", &p.Crashes},
		{"boot_failures", "Guest boots that failed at the end of the boot window.", &p.BootFailures},
		{"respawns", "Crashed guests re-instantiated by the backoff respawner.", &p.Respawns},
		{"outages", "Whole-platform outages.", &p.Outages},
		{"evictions", "Idle guests evicted under memory pressure.", &p.Evictions},
		{"checkpoints", "Suspend images recorded for stateful modules.", &p.Checkpoints},
		{"restores", "Module state restores from a checkpoint.", &p.Restores},
	}
	for _, c := range counters {
		v := c.v
		r.CounterFunc("innet_platform_"+c.suffix+"_total", c.help,
			read(func() float64 { return float64(*v) }), "platform", name)
	}
	drops := []struct {
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
	for _, d := range drops {
		v := d.v
		r.CounterFunc("innet_platform_dropped_total",
			"Packets dropped by the platform datapath, by reason.",
			read(func() float64 { return float64(*v) }), "platform", name, "reason", d.reason)
	}
	// Work of the modules' pipeline.Execs on this platform's simulated
	// dataplane.
	// Labeled by platform; sums stay monotonic across VM destroys.
	pipeCounters := []struct {
		suffix string
		help   string
		pick   func(pk, ba, dr uint64) uint64
	}{
		{"packets", "Packets run to completion by module pipelines.",
			func(pk, _, _ uint64) uint64 { return pk }},
		{"batches", "Batches run to completion by module pipelines.",
			func(_, ba, _ uint64) uint64 { return ba }},
		{"drops", "Packets dropped inside module pipelines.",
			func(_, _, dr uint64) uint64 { return dr }},
	}
	for _, c := range pipeCounters {
		pick := c.pick
		r.CounterFunc("innet_pipeline_"+c.suffix+"_total", c.help,
			read(func() float64 { return float64(pick(p.PipelineCounters())) }), "platform", name)
	}
	r.GaugeFunc("innet_platform_resident_vms", "Instantiated guest VMs.",
		read(func() float64 { return float64(p.ResidentVMs()) }), "platform", name)
	r.GaugeFunc("innet_platform_registered_modules", "Registered module specs.",
		read(func() float64 { return float64(p.RegisteredModules()) }), "platform", name)
	r.GaugeFunc("innet_platform_mem_used_mb", "Memory held by resident guests, MB.",
		read(func() float64 { return float64(p.MemUsedMB) }), "platform", name)
	r.GaugeFunc("innet_platform_pending_buffered", "Packets parked in boot buffers and orphan queues.",
		read(func() float64 { return float64(p.PendingBuffered()) }), "platform", name)
	r.GaugeFunc("innet_platform_down", "1 while the platform is in an outage, else 0.",
		read(func() float64 {
			if p.Down() {
				return 1
			}
			return 0
		}), "platform", name)
}
