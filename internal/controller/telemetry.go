// Controller telemetry: per-stage admission latency histograms,
// verdict counters, and a span per admission in the trace ring. The
// instrumentation rides the existing serialization — admissions run
// one at a time under c.mu, so the active span lives on the
// controller and stage helpers need no extra locking. A controller
// with no telemetry attached pays one nil check per stage.
package controller

import (
	"time"

	"github.com/in-net/innet/internal/telemetry"
)

// Admission stage names, as they appear in the
// innet_admission_stage_seconds{stage=...} histogram and in traces.
const (
	StageCanonicalize  = "canonicalize"
	StageCacheLookup   = "cache-lookup"
	StageSecurity      = "security-symexec"
	StagePolicyCheck   = "policy-check"
	StagePlacement     = "placement"
	StageJournalAppend = "journal-append"
)

// AdmissionStages lists every stage an admission trace can contain
// (DESIGN.md "Telemetry" gives the order a deploy records them in).
var AdmissionStages = []string{
	StageCanonicalize, StageCacheLookup, StageSecurity,
	StagePolicyCheck, StagePlacement, StageJournalAppend,
}

// admissionTelemetry holds the pre-resolved metric handles so the
// admission path never takes the registry lock.
type admissionTelemetry struct {
	stages   map[string]*telemetry.Histogram
	admitted *telemetry.Counter
	rejected *telemetry.Counter
	total    *telemetry.Histogram
}

// AttachTelemetry wires a metrics registry and a trace ring into the
// controller. Either may be nil (that side stays dark). Call before
// serving requests; like AttachJournal, it is not meant to be flipped
// while admissions are in flight.
func (c *Controller) AttachTelemetry(r *telemetry.Registry, tr *telemetry.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = tr
	if r == nil {
		return
	}
	tel := &admissionTelemetry{
		stages: make(map[string]*telemetry.Histogram, len(AdmissionStages)),
		admitted: r.Counter("innet_admission_verdicts_total",
			"Admission decisions by verdict.", "verdict", "admitted"),
		rejected: r.Counter("innet_admission_verdicts_total",
			"Admission decisions by verdict.", "verdict", "rejected"),
		total: r.Histogram("innet_admission_seconds",
			"End-to-end admission (Deploy) latency.", nil),
	}
	for _, st := range AdmissionStages {
		tel.stages[st] = r.Histogram("innet_admission_stage_seconds",
			"Admission pipeline stage latency.", nil, "stage", st)
	}
	c.tel = tel

	// Decision counters and the deployment gauge read controller state
	// under c.mu at scrape time; a scrape may briefly wait out an
	// in-flight admission, never the other way around.
	r.CounterFunc("innet_controller_placed_total",
		"Requests admitted and placed.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.state.Placed) })
	r.CounterFunc("innet_controller_rejections_total",
		"Requests rejected by admission.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.state.Rejections) })
	r.CounterFunc("innet_controller_migrations_total",
		"Deployments migrated off a failed platform.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.state.Migrations) })
	r.CounterFunc("innet_controller_failed_migrations_total",
		"Failovers that found no admissible alternate platform.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.state.FailedMigrations) })
	r.GaugeFunc("innet_controller_deployments",
		"Deployments currently recorded (all statuses).",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.deployments)) })

	// The admission cache keeps its own thread-safe counters; bridge
	// them as callbacks (c.cache is immutable after construction and
	// Stats is nil-safe, so no c.mu here).
	r.CounterFunc("innet_admission_cache_hits_total",
		"Admission-cache verdict hits.",
		func() float64 { return float64(c.CacheStats().Hits) })
	r.CounterFunc("innet_admission_cache_misses_total",
		"Admission-cache verdict misses.",
		func() float64 { return float64(c.CacheStats().Misses) })
	r.CounterFunc("innet_admission_cache_evictions_total",
		"Admission-cache LRU evictions.",
		func() float64 { return float64(c.CacheStats().Evictions) })
	r.CounterFunc("innet_admission_cache_invalidations_total",
		"Admission-cache entries dropped because their dependencies changed.",
		func() float64 { return float64(c.CacheStats().Invalidations) })

}

// SetRecorder wires a flight recorder into the controller. Like
// AttachTelemetry it is meant to be called once, before serving.
func (c *Controller) SetRecorder(r *telemetry.Recorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec = r
}

// recordLocked appends one flight-recorder event. Caller holds c.mu;
// a controller with no recorder pays one nil check.
func (c *Controller) recordLocked(typ, detail, ref string) {
	if c.rec != nil {
		c.rec.Record(typ, "controller", detail, ref)
	}
}

// RegisterDrops contributes the controller's drop site to the unified
// drop-attribution hub: admission rejections are "drops" of whole
// deployment requests rather than packets, but they share the
// innet_drops_total{site,reason} surface so one query covers every
// place the system refuses work.
func (c *Controller) RegisterDrops(d *telemetry.Drops) {
	if d == nil {
		return
	}
	d.Source("admission", "rejected", func() uint64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return uint64(c.state.Rejections)
	})
}

// Tracer returns the attached trace ring (nil when tracing is off) so
// the API layer can serve /v1/traces without holding a second handle.
func (c *Controller) Tracer() *telemetry.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tracer
}

// stageLocked records one admission stage: a histogram sample and,
// when an admission span is open, a trace stage. Caller holds c.mu.
func (c *Controller) stageLocked(stage string, start time.Time, detail string) {
	c.stageDurationLocked(stage, time.Since(start), detail)
}

// stageDurationLocked is stageLocked for a stage measured as d.
func (c *Controller) stageDurationLocked(stage string, d time.Duration, detail string) {
	if c.tel != nil {
		if h := c.tel.stages[stage]; h != nil {
			h.Observe(d.Seconds())
		}
	}
	c.span.Stage(stage, d, detail) // nil-safe
}

// verdictLocked counts one admission decision. Caller holds c.mu.
func (c *Controller) verdictLocked(admitted bool) {
	if c.tel == nil {
		return
	}
	if admitted {
		c.tel.admitted.Inc()
	} else {
		c.tel.rejected.Inc()
	}
}

// beginSpanLocked opens the admission span for the request being
// handled; endSpanLocked commits it with a verdict. Caller holds c.mu.
func (c *Controller) beginSpanLocked(kind, id string) { c.span = c.tracer.Begin(kind, id) }

func (c *Controller) endSpanLocked(verdict string) {
	c.span.End(verdict)
	c.span = nil
}
