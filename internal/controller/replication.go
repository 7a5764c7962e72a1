// Controller-side replication support: role state (single, leader,
// standby), leader-only gating of mutating operations, the idempotent
// deploy path clients retry against after a failover, and the standby
// catch-up apply that folds replicated journal records into a warm
// in-memory replica without re-journaling them.
package controller

import (
	"errors"
	"fmt"

	"github.com/in-net/innet/internal/journal"
)

// Role is the controller's replication role.
type Role int32

const (
	// RoleSingle is the unreplicated default: one controller owns the
	// journal and serves everything.
	RoleSingle Role = iota
	// RoleLeader owns admissions and ships journal frames to standbys.
	RoleLeader
	// RoleStandby applies replicated records and serves reads only;
	// mutating operations return ErrNotLeader. A deposed (fenced)
	// ex-leader is also set to RoleStandby.
	RoleStandby
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleStandby:
		return "standby"
	default:
		return "single"
	}
}

// ParseRole maps flag values to roles.
func ParseRole(s string) (Role, error) {
	switch s {
	case "single", "":
		return RoleSingle, nil
	case "leader":
		return RoleLeader, nil
	case "standby":
		return RoleStandby, nil
	default:
		return 0, fmt.Errorf("controller: unknown role %q (want single, leader or standby)", s)
	}
}

// ErrNotLeader is returned by mutating operations on a standby (or
// fenced ex-leader) controller. The API layer translates it into a
// redirect to the current leader.
var ErrNotLeader = errors.New("controller: not the leader")

// SetRole flips the controller's replication role. The replication
// node calls it on promotion (standby→leader) and fencing
// (leader→standby).
func (c *Controller) SetRole(r Role) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.role = r
}

// Role returns the controller's replication role.
func (c *Controller) Role() Role {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// leaderOnlyLocked rejects mutations on a standby controller.
func (c *Controller) leaderOnlyLocked() error {
	if c.role == RoleStandby {
		return ErrNotLeader
	}
	return nil
}

// sameRequest reports whether two deployment requests are
// byte-identical — the retry-equality test behind DeployIdempotent.
func sameRequest(a, b Request) bool {
	if a.Tenant != b.Tenant || a.ModuleName != b.ModuleName ||
		a.Config != b.Config || a.Stock != b.Stock ||
		a.Requirements != b.Requirements || a.Trust != b.Trust ||
		a.Transparent != b.Transparent || a.TraceEvery != b.TraceEvery ||
		len(a.Whitelist) != len(b.Whitelist) {
		return false
	}
	for i := range a.Whitelist {
		if a.Whitelist[i] != b.Whitelist[i] {
			return false
		}
	}
	return true
}

// DeployIdempotent is Deploy for clients that may be retrying after a
// failover: when an identical request (same tenant, module and full
// request body) is already deployed, the existing deployment is
// returned with reused=true instead of a duplicate-module rejection.
// This resolves the client's ambiguity after a leader crash — whether
// the admission replicated before the crash or not, the retry against
// the new leader converges on exactly one deployment. A *different*
// request under an existing (tenant, module) name still rejects.
func (c *Controller) DeployIdempotent(req Request) (*Deployment, bool, error) {
	return c.deploy(req, true)
}

// ApplyRecord folds one replicated journal record into the live
// controller, all or nothing — the standby catch-up path. It rebuilds
// the deployment an admit or migrate installs first, so a config that
// does not build fails before anything changes (one without its record
// is a no-op, as in the journal's fold). Then ingest, when set, runs
// without the controller's lock (a standby's store folds the frame
// there), and applyLocked makes the leader's transition; nothing is
// re-journaled or re-analysed.
func (c *Controller) ApplyRecord(r journal.Record, ingest func() error) error {
	var d *Deployment
	if (r.Type == journal.EvAdmit || r.Type == journal.EvMigrate) && r.Dep != nil {
		var err error
		if d, err = deploymentFromRecord(r.Dep); err != nil {
			return err
		}
	}
	if ingest != nil {
		if err := ingest(); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.applyLocked(r, d)
	return nil
}

// ResetToState is ApplyRecord for a whole folded state: the standby
// snapshot resync (ingest resets the store) and Restore's load step.
// It replaces the deployment set, runs no placement and journals
// nothing; the topology, policy and caches survive.
func (c *Controller) ResetToState(st *journal.State, ingest func() error) error {
	deployments := make(map[string]*Deployment, len(st.Deployments))
	for _, id := range st.IDs() {
		d, err := deploymentFromRecord(st.Deployments[id])
		if err != nil {
			return err
		}
		deployments[id] = d
	}
	if ingest != nil {
		if err := ingest(); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = st.Clone()
	c.deployments = deployments
	c.deps = newDepTable(c.topo.Platforms())
	for id := range deployments {
		c.depsNoteLocked(id)
	}
	c.notifyLocked()
	return nil
}
