// Controller persistence and restart recovery: every mutation decides
// a journal record, commits it through the Journal interface and
// applies it with the one transition function (applyLocked), and
// Restore rebuilds a controller from the folded journal state —
// re-attaching to platforms that still report the module and
// re-running the placement step (platform choice plus the
// placement-dependent requirement and policy checks, but never the
// security symbolic execution, which the journal already paid for)
// for deployments whose platform vanished.
package controller

import (
	"fmt"
	"sort"
	"time"

	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

// Journal receives one record per controller state transition.
// *journal.Store implements it; nil disables persistence. Admission
// and kill records are write-ahead (the operation fails if the append
// does) and go through AppendSync(journal.Record) error when the
// journal has one, as the replication node does; the rest are
// best-effort with the first failure remembered by JournalErr.
type Journal interface {
	Append(journal.Record) error
}

// AttachJournal wires a journal sink into the controller. Call it
// before serving requests; transitions before attachment are lost.
func (c *Controller) AttachJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// JournalErr reports the first best-effort journal append that
// failed (nil on a healthy journal).
func (c *Controller) JournalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalErr
}

// commitLocked is how every mutation ends once its decide step has
// produced rec (and, for EvAdmit/EvMigrate, the placed deployment d):
// journal the record, then apply it. Whether the append is write-ahead
// is decided here, by record type. An admission or kill that is not
// durable (and, under replication, acknowledged by the standbys via
// the journal's AppendSync) fails and is not applied, so a recovered
// controller never loses an admitted module or resurrects a killed
// one. Every other record is best-effort: dropping a status flip is
// recoverable (recovery re-derives health from platforms), so the
// transition applies and the first failure is kept for JournalErr.
func (c *Controller) commitLocked(rec journal.Record, d *Deployment) error {
	// Stamp the ID counter so a recovered controller never reissues a
	// deployment ID.
	rec.NextID = max(rec.NextID, c.state.NextID)
	if c.journal != nil {
		writeAhead := rec.Type == journal.EvAdmit || rec.Type == journal.EvKill
		var err error
		if sj, ok := c.journal.(interface{ AppendSync(journal.Record) error }); ok && writeAhead {
			err = sj.AppendSync(rec)
		} else {
			err = c.journal.Append(rec)
		}
		if err != nil && writeAhead {
			return err
		}
		if err != nil && c.journalErr == nil {
			c.journalErr = err
		}
	}
	c.applyLocked(rec, d)
	return nil
}

// placedRecord is the record of a live placement. Deploy, Failover and
// RetryFailed each use up one deployment ID — a migration keeps its
// old ID but still consumes pm-N — so NextID counts it; a recovery
// re-placement uses none and commits a plain record instead.
func (c *Controller) placedRecord(typ journal.EventType, d *Deployment) journal.Record {
	return journal.Record{Type: typ, Dep: d.DeploymentRecord, NextID: c.state.NextID + 1}
}

// applyLocked is the controller's transition function: what one
// journal record does to the in-memory state. The live mutators (after
// commitLocked's append), the standby (ApplyRecord) and restart
// recovery all go through it. The record folds into c.state through
// journal.State.Apply, the one fold of the journal; the rest mirrors
// that fold into the runtime side-table. d is the deployment an
// EvAdmit/EvMigrate installs: the one the leader just placed, or one
// rebuilt from the record. A record touches the deployment it carries,
// the one its ID names, or every deployment on its platform.
func (c *Controller) applyLocked(rec journal.Record, d *Deployment) {
	c.state.Apply(rec)
	if d != nil {
		c.deployments[d.ID] = d
		c.mirrorLocked(d.ID)
	}
	if rec.ID != "" {
		c.mirrorLocked(rec.ID)
	}
	if rec.Platform != "" {
		for id, hd := range c.deployments {
			if hd.Platform == rec.Platform {
				c.mirrorLocked(id)
			}
		}
	}
	c.notifyLocked()
}

// Watch makes fn see the state now and after every transition, applied
// or loaded, in place of any earlier watcher (nil detaches). fn runs
// under the controller's lock: it must not call into the controller,
// nor keep or write st (its records it may keep).
func (c *Controller) Watch(fn func(st *journal.State)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watch = fn
	c.notifyLocked()
}

func (c *Controller) notifyLocked() {
	if c.watch != nil {
		c.watch(c.state)
	}
}

// mirrorLocked brings deployment id's side-table entry in line with
// its record in c.state: the record's status, or no entry once the
// record is gone. An ID that neither holds (EvReject names a module,
// not a deployment) changes nothing. StatusMigrating is never
// journaled: it lives only in the side-table, inside one locked
// Failover, RetryFailed or Restore.
func (c *Controller) mirrorLocked(id string) {
	if r, ok := c.state.Deployments[id]; !ok {
		delete(c.deployments, id)
	} else if d := c.deployments[id]; d != nil {
		d.setStatus(parseStatus(r.Status))
	}
	c.depsNoteLocked(id)
}

// recoveredReport synthesizes a minimal security report for a
// deployment rebuilt from the journal: the verdict survives, the
// per-flow findings do not (they were advisory; the admission-time
// decision — sandbox or not — is baked into the deployed config).
func recoveredReport(verdict string) *security.Report {
	rep := &security.Report{Reasons: []string{"recovered from journal"}}
	if verdict == security.NeedsSandbox.String() {
		rep.Verdict = security.NeedsSandbox
	}
	return rep
}

func parseStatus(s string) DeploymentStatus {
	switch s {
	case journal.StatusDegraded:
		return StatusDegraded
	case journal.StatusFailed:
		return StatusFailed
	default:
		return StatusActive
	}
}

// requestFromRecord rebuilds the original deployment request.
func requestFromRecord(rec *journal.DeploymentRecord) Request {
	return Request{
		Tenant:       rec.Tenant,
		ModuleName:   rec.ModuleName,
		Config:       rec.ReqConfig,
		Stock:        rec.ReqStock,
		Requirements: rec.ReqRequirements,
		Trust:        security.TrustClass(rec.Trust),
		Whitelist:    append([]string(nil), rec.Whitelist...),
		Transparent:  rec.Transparent,
		TraceEvery:   rec.ReqTraceEvery,
	}
}

// deploymentFromRecord rebuilds a deployment exactly as journaled: it
// embeds rec itself, so the same platform, address and deployed
// config. Only the Click build runs — no symbolic analysis.
func deploymentFromRecord(rec *journal.DeploymentRecord) (*Deployment, error) {
	router, err := buildConfig(rec.Config)
	if err != nil {
		return nil, fmt.Errorf("controller: recover %s: journaled config does not build: %v", rec.ID, err)
	}
	d := &Deployment{
		DeploymentRecord: rec,
		Security:         recoveredReport(rec.Verdict),
		module: topology.HostedModule{
			ID: rec.ModuleName, Platform: rec.Platform, Addr: rec.Addr, Router: router,
		},
	}
	d.setStatus(parseStatus(rec.Status))
	d.seal()
	return d, nil
}

// Inventory answers, during recovery, whether a platform still
// reports a module at an address — the re-attach probe. A nil
// Inventory re-attaches everything as journaled.
type Inventory interface {
	HasModule(platform string, addr uint32) bool
}

// RecoveryReport summarizes one Restore (IDs sorted).
type RecoveryReport struct {
	// Reattached deployments were found intact on their journaled
	// platform and rebuilt in place.
	Reattached []string
	// Replaced deployments lost their platform and were re-placed
	// (placement step only) on a healthy one.
	Replaced []string
	// Failed deployments could not be re-placed (or were journaled
	// as failed); they are kept with StatusFailed for RetryFailed.
	Failed []string
	// Elapsed is the total recovery time.
	Elapsed time.Duration
}

// Restore rebuilds a controller from journaled state. The topology
// and operator policy are NOT persisted — they are configuration, and
// must be supplied exactly as on the original boot (the base-network
// policy check still runs). Deployments journaled as failed stay
// failed (only the full RetryFailed pipeline may bring them back);
// everything else is re-attached or re-placed per the Inventory. j
// (usually the same *journal.Store the state came from) is attached
// to the new controller, and re-placements are journaled through it
// before Restore returns.
func Restore(topo *topology.Topology, operatorPolicy string, opts Options, st *journal.State, inv Inventory, j Journal) (*Controller, *RecoveryReport, error) {
	start := time.Now()
	c, err := NewWithOptions(topo, operatorPolicy, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := c.ResetToState(st, nil); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j

	report := &RecoveryReport{}
	// Pass 1: everything still present is re-attached as loaded, so its
	// addresses are occupied before any re-placement allocates; a
	// vanished deployment turns migrating, off the network until pass 2
	// re-places it.
	var vanished []string
	for _, id := range st.IDs() {
		d := c.deployments[id]
		switch {
		case d.Status() == StatusFailed:
			report.Failed = append(report.Failed, id)
		case inv != nil && !inv.HasModule(d.Platform, d.Addr):
			d.setStatus(StatusMigrating)
			c.depsNoteLocked(id)
			vanished = append(vanished, id)
		default:
			report.Reattached = append(report.Reattached, id)
		}
	}
	// Pass 2: placement-only recovery for vanished platforms. A module
	// that fits nowhere is kept, failed: capacity may return.
	for _, id := range vanished {
		d, perr := c.placeLocked(requestFromRecord(st.Deployments[id]), st.Deployments[id])
		if perr != nil {
			c.commitLocked(journal.Record{Type: journal.EvMigrateFailed, ID: id, Reason: perr.Error()}, nil)
			report.Failed = append(report.Failed, id)
			continue
		}
		c.commitLocked(journal.Record{Type: journal.EvMigrate, Dep: d.DeploymentRecord}, d)
		report.Replaced = append(report.Replaced, id)
	}
	sort.Strings(report.Failed)
	report.Elapsed = time.Since(start)
	return c, report, nil
}
