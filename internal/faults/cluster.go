package faults

import (
	"fmt"
	"sort"
	"strings"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/topology"
	"github.com/in-net/innet/internal/vswitch"
)

// Cluster binds the three recovery layers together for fault-injected
// runs: the controller (placement, health tracking, verified
// failover), one simulated platform per topology platform, and one
// back-end switch per platform (outage buffering). It implements
// Target, so a Plan can be scheduled straight onto it, and routes
// workload packets by deployment — not by address — so traffic
// follows modules across migrations.
type Cluster struct {
	Sim *netsim.Sim
	Ctl *controller.Controller

	// topo / policy / opts / stateDir let CrashController rebuild the
	// controller from scratch; store is the open journal (nil when the
	// cluster runs without persistence).
	topo     *topology.Topology
	policy   string
	opts     controller.Options
	stateDir string
	store    *journal.Store
	// Recoveries counts completed controller crash-recover cycles.
	Recoveries int

	platforms map[string]*platform.Platform
	switches  map[string]*vswitch.Switch
	recon     *platform.Reconciler
	// depIDs orders deployments; fault Module indexes resolve here.
	depIDs []string

	lossUntil map[string]netsim.Time
	lossProb  map[string]float64

	// Sent / Received count workload packets in and module emissions
	// out. LostOnLink counts loss-burst drops. Errs records recovery
	// actions that failed (empty on a healthy run).
	Sent, Received, LostOnLink uint64
	Errs                       []string
}

// NewCluster builds a fault-injectable cluster over a topology. The
// seed drives the virtual clock's RNG (loss bursts); pair it with a
// Plan generated from the same or a different seed as the experiment
// demands.
func NewCluster(seed int64, topo *topology.Topology, operatorPolicy string) (*Cluster, error) {
	return NewClusterWithState(seed, topo, operatorPolicy, "")
}

// NewClusterWithState additionally journals every controller
// transition under stateDir (an existing directory), arming the
// cluster for KindControllerCrash faults. An empty stateDir disables
// persistence — CrashController then records an error and does
// nothing.
func NewClusterWithState(seed int64, topo *topology.Topology, operatorPolicy, stateDir string) (*Cluster, error) {
	return NewClusterWithOptions(seed, topo, operatorPolicy, stateDir, controller.Options{})
}

// NewClusterWithOptions is NewClusterWithState with explicit controller
// options — the options survive controller crashes, so a cluster built
// with (say) the admission cache disabled restores a controller with
// the cache disabled too.
func NewClusterWithOptions(seed int64, topo *topology.Topology, operatorPolicy, stateDir string, opts controller.Options) (*Cluster, error) {
	ctl, err := controller.NewWithOptions(topo, operatorPolicy, opts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Sim:       netsim.New(seed),
		Ctl:       ctl,
		topo:      topo,
		policy:    operatorPolicy,
		opts:      opts,
		stateDir:  stateDir,
		platforms: make(map[string]*platform.Platform),
		switches:  make(map[string]*vswitch.Switch),
		lossUntil: make(map[string]netsim.Time),
		lossProb:  make(map[string]float64),
	}
	if stateDir != "" {
		store, err := journal.Open(stateDir, journal.Options{Sync: journal.SyncNone})
		if err != nil {
			return nil, err
		}
		c.store = store
		ctl.AttachJournal(store)
	}
	for _, name := range topo.Platforms() {
		p := platform.New(c.Sim, platform.DefaultModel(), 16*1024)
		sw := vswitch.NewSharded(vswitch.DefaultShards)
		sw.ToModule = func(module uint32, pk *packet.Packet) {
			p.Deliver(pk, c.recv)
		}
		c.platforms[name] = p
		c.switches[name] = sw
	}
	c.recon = platform.NewReconciler(c.platforms, c.switches)
	ctl.Watch(c.reconcile)
	return c, nil
}

// reconcile makes the dataplane follow the controller; a failed
// install lands in Errs.
func (c *Cluster) reconcile(st *journal.State) {
	if err := c.recon.Reconcile(st); err != nil {
		c.Errs = append(c.Errs, err.Error())
	}
}

func (c *Cluster) recv(iface int, pk *packet.Packet) { c.Received++ }

// Platform returns a platform simulator by name (for assertions).
func (c *Cluster) Platform(name string) *platform.Platform { return c.platforms[name] }

// Switch returns a platform's back-end switch by name.
func (c *Cluster) Switch(name string) *vswitch.Switch { return c.switches[name] }

// Deploy verifies and places a request; the reconciler registers the
// module on its hosting platform and installs the steering rule. The
// returned index identifies the module for Send and for fault plans.
func (c *Cluster) Deploy(req controller.Request) (int, error) {
	dep, err := c.Ctl.Deploy(req)
	if err != nil {
		return -1, err
	}
	c.depIDs = append(c.depIDs, dep.ID)
	return len(c.depIDs) - 1, nil
}

// dep resolves a module index to its current deployment (placements
// move on failover).
func (c *Cluster) dep(module int) *controller.Deployment {
	if module < 0 || module >= len(c.depIDs) {
		return nil
	}
	d, ok := c.Ctl.Get(c.depIDs[module])
	if !ok {
		return nil
	}
	return d
}

// Send pushes one workload packet toward a module at the current
// virtual time. The destination address is resolved now, so traffic
// follows the module to its post-failover home.
func (c *Cluster) Send(module int, pk *packet.Packet) {
	d := c.dep(module)
	if d == nil {
		return
	}
	c.Sent++
	name := d.Platform
	if until, ok := c.lossUntil[name]; ok && c.Sim.Now() < until {
		if c.Sim.Rand().Float64() < c.lossProb[name] {
			c.LostOnLink++
			return
		}
	}
	pk.DstIP = d.Addr
	c.switches[name].Process(pk)
}

// ---- Target ----------------------------------------------------------

// CrashVM kills the guest currently serving a module.
func (c *Cluster) CrashVM(module int) {
	if d := c.dep(module); d != nil {
		c.platforms[d.Platform].CrashVM(d.Addr)
	}
}

// FailNextBoot arms a boot failure for a module's next instantiation.
func (c *Cluster) FailNextBoot(module int) {
	if d := c.dep(module); d != nil {
		c.platforms[d.Platform].FailNextBoot(d.Addr)
	}
}

// PlatformDown simulates a platform outage end to end: the host dies,
// its switch starts buffering, the controller marks it unhealthy and
// every module hosted there is re-verified and migrated to an
// alternate platform (or marked failed).
func (c *Cluster) PlatformDown(name string) {
	c.platforms[name].Fail()
	c.switches[name].SetDown(true)
	c.Ctl.MarkPlatformDown(name)
	_, failed := c.Ctl.Failover(name)
	for _, d := range failed {
		c.Errs = append(c.Errs, fmt.Sprintf("failover %s: no alternate platform", d.ID))
	}
}

// PlatformUp recovers a platform: buffered switch traffic is
// re-dispatched and the controller marks the platform healthy again.
func (c *Cluster) PlatformUp(name string) {
	c.platforms[name].Recover()
	c.Ctl.MarkPlatformUp(name)
	c.switches[name].SetDown(false)
}

// LossBurst degrades a platform's access link: packets sent toward it
// drop with probability loss until now+dur.
func (c *Cluster) LossBurst(name string, loss float64, dur netsim.Time) {
	c.lossProb[name] = loss
	c.lossUntil[name] = c.Sim.Now() + dur
}

// clusterInventory is the recovery re-attach probe: a deployment is
// still present when its platform simulator is up and reports a
// module spec at the journaled address.
type clusterInventory struct{ c *Cluster }

func (ci clusterInventory) HasModule(name string, addr uint32) bool {
	p := ci.c.platforms[name]
	return p != nil && !p.Down() && p.HasModule(addr)
}

// CrashController kills the controller process mid-run and restarts
// it: all in-memory controller state is discarded, a fresh store is
// opened over the state dir (exactly the restart path innetd takes),
// and the controller is rebuilt from snapshot + journal. Deployments
// whose platform vanished while the controller was down are re-placed
// and, once the reconciler watches the restored controller, moved.
// Without a state dir the fault is recorded in Errs and skipped.
func (c *Cluster) CrashController() {
	if c.store == nil {
		c.Errs = append(c.Errs, "controller-crash: no state dir; fault skipped")
		return
	}
	// Only the state dir survives the crash.
	if err := c.store.Close(); err != nil {
		c.Errs = append(c.Errs, fmt.Sprintf("controller-crash: close store: %v", err))
	}
	store, err := journal.Open(c.stateDir, journal.Options{Sync: journal.SyncNone})
	if err != nil {
		c.Errs = append(c.Errs, fmt.Sprintf("controller-crash: reopen journal: %v", err))
		return
	}
	ctl, _, err := controller.Restore(c.topo, c.policy, c.opts, store.State(), clusterInventory{c}, store)
	if err != nil {
		store.Close()
		c.Errs = append(c.Errs, fmt.Sprintf("controller-crash: restore: %v", err))
		return
	}
	c.Ctl = ctl
	c.store = store
	ctl.Watch(c.reconcile)
	c.Recoveries++
}

// Close releases the journal store (a no-op without persistence).
func (c *Cluster) Close() error {
	if c.store != nil {
		return c.store.Close()
	}
	return nil
}

// ---- Accounting ------------------------------------------------------

// ScheduleCheckpoints arms periodic suspend-image checkpoints of all
// stateful modules on every platform, every interval up to horizon
// (a finite schedule, so Sim.Run terminates).
func (c *Cluster) ScheduleCheckpoints(every, horizon netsim.Time) {
	for t := every; t <= horizon; t += every {
		c.Sim.At(t, func() {
			for _, name := range c.platformNames() {
				c.platforms[name].Checkpoint()
			}
		})
	}
}

func (c *Cluster) platformNames() []string {
	names := make([]string, 0, len(c.platforms))
	for name := range c.platforms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DroppedTotal sums every explicit drop counter across all layers.
func (c *Cluster) DroppedTotal() uint64 {
	n := c.LostOnLink
	for _, name := range c.platformNames() {
		n += c.platforms[name].DroppedTotal()
		n += c.switches[name].Misses() + c.switches[name].DroppedDown()
	}
	return n
}

// Buffered counts packets still parked in boot buffers, orphan queues
// and outage buffers.
func (c *Cluster) Buffered() int {
	n := 0
	for _, name := range c.platformNames() {
		n += c.platforms[name].PendingBuffered()
		n += c.switches[name].Buffered()
	}
	return n
}

// Summary renders the run's outcome deterministically: workload
// accounting, per-platform failure counters and final deployment
// statuses. Two runs with identical seeds must produce byte-identical
// summaries.
func (c *Cluster) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent=%d received=%d dropped=%d buffered=%d lost-link=%d\n",
		c.Sent, c.Received, c.DroppedTotal(), c.Buffered(), c.LostOnLink)
	for _, name := range c.platformNames() {
		p := c.platforms[name]
		sw := c.switches[name]
		fmt.Fprintf(&b, "platform %s: boots=%d crashes=%d bootfails=%d respawns=%d outages=%d checkpoints=%d restores=%d drops[full=%d timeout=%d down=%d inflight=%d nomem=%d nomod=%d] sw[miss=%d down=%d redisp=%d]\n",
			name, p.Boots, p.Crashes, p.BootFailures, p.Respawns, p.Outages,
			p.Checkpoints, p.Restores,
			p.DroppedBufferFull, p.DroppedTimeout, p.DroppedDown, p.DroppedInFlight,
			p.DroppedNoMemory, p.DroppedNoModule,
			sw.Misses(), sw.DroppedDown(), sw.Redispatched())
	}
	deps := c.Ctl.Deployments()
	sort.Slice(deps, func(i, j int) bool { return deps[i].ID < deps[j].ID })
	for _, d := range deps {
		fmt.Fprintf(&b, "deployment %s: platform=%s addr=%s status=%s\n",
			d.ID, d.Platform, packet.IPString(d.Addr), d.Status())
	}
	for _, e := range c.Errs {
		fmt.Fprintf(&b, "err: %s\n", e)
	}
	return b.String()
}
