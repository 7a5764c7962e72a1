package platform

import (
	"errors"
	"fmt"
	"slices"

	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/vswitch"
)

// statefulClasses lists element classes that hold cross-packet state:
// the platform must not consolidate such modules and uses
// suspend/resume instead of destroy/boot for them (§5).
var statefulClasses = map[string]bool{
	"StatefulFirewall": true,
	"IPRewriter":       true,
	"FlowMeter":        true,
	"Queue":            true,
	"TimedUnqueue":     true,
	"RatedUnqueue":     true,
	"ChangeEnforcer":   true,
}

// SpecOf is the module spec a platform registers for a deployment
// record. It is stateful when an element holds cross-packet state, or
// when the config does not parse (to be conservative).
func SpecOf(rec *journal.DeploymentRecord) ModuleSpec {
	stateful := true
	if cfg, err := clicklang.Parse(rec.Config); err == nil {
		stateful = slices.ContainsFunc(cfg.Decls, func(d clicklang.Decl) bool { return statefulClasses[d.Class] })
	}
	return ModuleSpec{Addr: rec.Addr, Config: rec.Config, Kind: ClickOS, Stateful: stateful, TraceEvery: rec.ReqTraceEvery}
}

// Reconciler keeps platforms, each fronted by its vswitch, a function
// of the controller's journal state (§4.3: the controller is the one
// authority over what runs on a platform). Every record that is not
// failed is registered on its platform with a dispatch rule for its
// address, and nothing else is. It is not safe for concurrent use.
type Reconciler struct {
	platforms map[string]*Platform
	switches  map[string]*vswitch.Switch
	installed map[string]*journal.DeploymentRecord // by deployment ID
	rules     map[string]*vswitch.Rule
	errs      map[string]error // why the last pass could not install an ID
}

// NewReconciler reconciles onto platforms and their switches, both
// keyed by topology platform name.
func NewReconciler(platforms map[string]*Platform, switches map[string]*vswitch.Switch) *Reconciler {
	return &Reconciler{platforms: platforms, switches: switches,
		installed: make(map[string]*journal.DeploymentRecord), rules: make(map[string]*vswitch.Rule)}
}

// Reconcile installs and uninstalls exactly the difference between
// what is installed and st's on-network set. An entry stays only while
// its record keeps its platform, address, config and trace rate and
// its platform still reports the module: a recovery re-placement may
// land on the address it just vacated, on a host that lost it. A
// failed install is retried on the next pass; the error joins this
// pass's, in ID order.
func (r *Reconciler) Reconcile(st *journal.State) error {
	for id, old := range r.installed {
		rec := st.Deployments[id]
		if rec != nil && rec.Status != journal.StatusFailed && rec.Platform == old.Platform && rec.Addr == old.Addr &&
			rec.Config == old.Config && rec.ReqTraceEvery == old.ReqTraceEvery && r.platforms[old.Platform].HasModule(old.Addr) {
			continue
		}
		r.platforms[old.Platform].Unregister(old.Addr)
		_ = r.switches[old.Platform].Remove(r.rules[id]) // installed here; nothing else removes it
		delete(r.installed, id)
		delete(r.rules, id)
	}
	var errs []error
	r.errs = make(map[string]error)
	for _, id := range st.IDs() {
		if rec := st.Deployments[id]; r.installed[id] == nil && rec.Status != journal.StatusFailed {
			if err := r.install(rec); err != nil {
				r.errs[id] = fmt.Errorf("platform: install %s: %w", id, err)
				errs = append(errs, r.errs[id])
			}
		}
	}
	return errors.Join(errs...)
}

func (r *Reconciler) install(rec *journal.DeploymentRecord) error {
	p, sw := r.platforms[rec.Platform], r.switches[rec.Platform]
	if p == nil || sw == nil {
		return fmt.Errorf("no simulated platform %q", rec.Platform)
	}
	if err := p.Register(SpecOf(rec)); err != nil {
		return err
	}
	r.installed[rec.ID] = rec
	r.rules[rec.ID] = sw.Install(vswitch.Rule{
		Priority: 10,
		Match:    vswitch.Match{DstIP: rec.Addr},
		Action:   vswitch.ActToModule,
		Module:   rec.Addr,
	})
	return nil
}

// Err reports why the last Reconcile could not install deployment id
// (nil when it is installed, failed or gone).
func (r *Reconciler) Err(id string) error { return r.errs[id] }
