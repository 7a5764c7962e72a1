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
	rec.NextID = max(rec.NextID, c.nextID)
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
	return journal.Record{Type: typ, Dep: depRecord(d), NextID: c.nextID + 1}
}

// applyLocked is the controller's transition function: what one
// journal record does to the in-memory state. The live mutators (after
// commitLocked's append), the standby (ApplyRecord) and restart
// recovery all go through it, and it mirrors journal.State.Apply —
// the on-disk fold the tests use as the oracle. d is the deployment
// an EvAdmit/EvMigrate installs: the one the leader just placed, or
// one rebuilt from the record.
func (c *Controller) applyLocked(rec journal.Record, d *Deployment) {
	if rec.NextID > c.nextID {
		c.nextID = rec.NextID
	}
	switch rec.Type {
	case journal.EvAdmit:
		c.deployments[d.ID] = d
		c.depsNoteLocked(d.ID)
		c.Placed++
	case journal.EvMigrate:
		c.deployments[d.ID] = d
		c.depsNoteLocked(d.ID)
		c.Migrations++
	case journal.EvMigrateFailed:
		if d, ok := c.deployments[rec.ID]; ok {
			d.setStatus(StatusFailed)
			c.depsNoteLocked(rec.ID)
		}
		c.FailedMigrations++
	case journal.EvStatus:
		if d, ok := c.deployments[rec.ID]; ok {
			d.setStatus(parseStatus(rec.Status))
			c.depsNoteLocked(rec.ID)
		}
	case journal.EvKill:
		delete(c.deployments, rec.ID)
		c.depsNoteLocked(rec.ID)
	case journal.EvPlatformDown:
		// Degraded modules stay on the network: no token changes.
		c.platformDown[rec.Platform] = true
		for _, d := range c.deployments {
			if d.Platform == rec.Platform && d.Status() == StatusActive {
				d.setStatus(StatusDegraded)
			}
		}
	case journal.EvPlatformUp:
		delete(c.platformDown, rec.Platform)
		for _, d := range c.deployments {
			if d.Platform == rec.Platform && d.Status() == StatusDegraded {
				d.setStatus(StatusActive)
			}
		}
	case journal.EvReject:
		c.Rejections++
	default:
		// EvTerm: leadership bookkeeping lives in the journal state.
	}
}

// loadStateLocked replaces the controller's state with a folded
// journal state: the bulk form of applyLocked, shared by ResetToState
// (standby snapshot resync) and Restore (restart recovery). It runs no
// placement and journals nothing; on error nothing changes.
func (c *Controller) loadStateLocked(st *journal.State) error {
	deployments := make(map[string]*Deployment, len(st.Deployments))
	for _, id := range st.IDs() {
		d, err := deploymentFromRecord(st.Deployments[id])
		if err != nil {
			return err
		}
		deployments[id] = d
	}
	c.deployments = deployments
	c.platformDown = make(map[string]bool)
	for name, down := range st.PlatformDown {
		if down {
			c.platformDown[name] = true
		}
	}
	c.nextID = st.NextID
	c.Placed = st.Placed
	c.Rejections = st.Rejections
	c.Migrations = st.Migrations
	c.FailedMigrations = st.FailedMigrations
	c.deps = newDepTable(c.topo.Platforms())
	for id := range deployments {
		c.depsNoteLocked(id)
	}
	return nil
}

// depRecord renders a deployment as its journal record.
func depRecord(d *Deployment) *journal.DeploymentRecord {
	return &journal.DeploymentRecord{
		ID:              d.ID,
		Tenant:          d.Tenant,
		ModuleName:      d.ModuleName,
		Platform:        d.Platform,
		Addr:            d.Addr,
		Sandboxed:       d.Sandboxed,
		Verdict:         verdictName(d.Security),
		Config:          d.Config,
		Status:          d.Status().String(),
		ReqConfig:       d.req.Config,
		ReqStock:        d.req.Stock,
		ReqRequirements: d.req.Requirements,
		Trust:           int(d.req.Trust),
		Whitelist:       append([]string(nil), d.req.Whitelist...),
		Transparent:     d.req.Transparent,
		ReqTraceEvery:   d.req.TraceEvery,
	}
}

func verdictName(rep *security.Report) string {
	if rep == nil {
		return ""
	}
	return rep.Verdict.String()
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

// deploymentFromRecord rebuilds a deployment exactly as journaled:
// same platform, address and deployed config. Only the Click build
// runs — no symbolic analysis.
func deploymentFromRecord(rec *journal.DeploymentRecord) (*Deployment, error) {
	router, err := buildConfig(rec.Config)
	if err != nil {
		return nil, fmt.Errorf("controller: recover %s: journaled config does not build: %v", rec.ID, err)
	}
	d := &Deployment{
		ID:         rec.ID,
		Tenant:     rec.Tenant,
		ModuleName: rec.ModuleName,
		Platform:   rec.Platform,
		Addr:       rec.Addr,
		Sandboxed:  rec.Sandboxed,
		Security:   recoveredReport(rec.Verdict),
		Config:     rec.Config,
		req:        requestFromRecord(rec),
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
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
	if err := c.loadStateLocked(st); err != nil {
		return nil, nil, err
	}

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
		d, perr := c.placeLocked(c.deployments[id].req, st.Deployments[id])
		if perr != nil {
			c.commitLocked(journal.Record{Type: journal.EvMigrateFailed, ID: id, Reason: perr.Error()}, nil)
			report.Failed = append(report.Failed, id)
			continue
		}
		c.commitLocked(journal.Record{Type: journal.EvMigrate, Dep: depRecord(d)}, d)
		report.Replaced = append(report.Replaced, id)
	}
	sort.Strings(report.Failed)
	report.Elapsed = time.Since(start)
	return c, report, nil
}
