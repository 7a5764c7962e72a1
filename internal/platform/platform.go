package platform

import (
	"fmt"
	"sort"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/telemetry"
)

// VMState is the lifecycle state of a guest.
type VMState int

// VM lifecycle states.
const (
	VMBooting VMState = iota
	VMRunning
	VMSuspending
	VMSuspended
	VMResuming
	// VMFailed marks a guest that crashed or failed to boot; the
	// platform re-instantiates its modules with capped exponential
	// backoff.
	VMFailed
)

func (s VMState) String() string {
	switch s {
	case VMBooting:
		return "booting"
	case VMRunning:
		return "running"
	case VMSuspending:
		return "suspending"
	case VMSuspended:
		return "suspended"
	case VMResuming:
		return "resuming"
	case VMFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// ModuleSpec is a processing module registered with the platform by
// the controller; its VM is only instantiated when traffic arrives
// (§5 "on-the-fly middleboxes").
type ModuleSpec struct {
	// Addr is the module's address: the switch steers matching
	// traffic to the module's VM.
	Addr uint32
	// Config is the Click source to boot.
	Config string
	// Kind selects the guest type.
	Kind VMKind
	// Stateful modules are suspended rather than destroyed when idle
	// (§5 "suspend and resume").
	Stateful bool
	// ExtraCycles adds middlebox-specific per-packet cost.
	ExtraCycles float64
	// NoPipeline has no effect: every module runs on its pipeline.Exec.
	//
	// Deprecated: kept only so existing callers still compile.
	NoPipeline bool
	// TraceEvery is the module's path-trace sampling rate: one flow in
	// every N flow-hash residues is traced. 0 uses the platform
	// default; negative disables tracing for this module.
	TraceEvery int

	hasSource bool
}

// VM is one guest instance.
type VM struct {
	ID    int
	Kind  VMKind
	State VMState
	MemMB int
	// Specs lists the module configurations consolidated in this VM.
	Specs []*ModuleSpec
	// LastActive is the last packet-processing time.
	LastActive netsim.Time

	// execs holds each hosted module's driver, built on first use; its
	// router is the module's state, and what a checkpoint images.
	execs   map[uint32]*pipeline.Exec
	pending []pendingPacket
	// PacketsProcessed counts packets pushed through the VM.
	PacketsProcessed uint64
}

type pendingPacket struct {
	pkt *packet.Packet
	out func(iface int, p *packet.Packet)
	// enq is when the packet entered the boot buffer; packets older
	// than PendingTimeout are dropped instead of delivered late.
	enq netsim.Time
}

// flight is a packet scheduled for processing: what its event needs
// when it fires. Records recycle through Platform.flights, so the
// steady-state path allocates nothing.
type flight struct {
	vm  *VM
	pkt *packet.Packet
	out func(iface int, pk *packet.Packet)
}

// Platform is the simulated In-Net host.
type Platform struct {
	sim   *netsim.Sim
	model Model
	// now is sim.Now and landFn is p.land, each bound once: the packet
	// path hands them out per packet without allocating a closure.
	now    func() int64
	landFn func(any)
	// flights is the free list of flight records.
	flights []*flight
	// Transmit, when set, receives traffic originated by source
	// modules (generators emit without a triggering Deliver).
	Transmit func(iface int, p *packet.Packet)
	// MemTotalMB bounds resident guests (16 GB box by default).
	MemTotalMB int
	MemUsedMB  int

	nextID int
	vms    map[int]*VM
	byAddr map[uint32]*VM
	specs  map[uint32]*ModuleSpec

	// Consolidate makes the platform pack stateless ClickOS modules
	// into shared VMs, up to ConsolidatePerVM configurations each
	// (§5 "scalability via static checking"; safety was established
	// by the controller).
	Consolidate      bool
	ConsolidatePerVM int

	// Failure & recovery knobs (DESIGN.md "Failure model & recovery").
	//
	// PendingLimit bounds the per-VM boot buffer; overflow drops are
	// counted in DroppedBufferFull. PendingTimeout bounds how long a
	// packet may wait for a guest to come up before it is dropped
	// (DroppedTimeout). RespawnBase/RespawnMax shape the capped
	// exponential backoff used to re-instantiate crashed guests.
	PendingLimit   int
	PendingTimeout netsim.Time
	RespawnBase    netsim.Time
	RespawnMax     netsim.Time

	// TraceEvery is the platform-wide default path-trace sampling rate
	// (one flow in N); 0 means telemetry.DefaultTraceEvery, negative
	// disables tracing unless a module opts in. Rings live on the
	// platform keyed by module address so traces survive VM churn.
	TraceEvery int
	pathRings  map[uint32]*telemetry.PathRing
	// Rec, when set, receives flight-recorder events for VM crashes,
	// respawns, evictions and outages.
	Rec *telemetry.Recorder

	down bool
	// respawn tracks consecutive failures per module address (backoff
	// exponent); failBoots holds armed boot-failure injections;
	// checkpoints are the suspend images of stateful modules; orphans
	// are packets whose guest died and that await the replacement.
	respawn     map[uint32]int
	failBoots   map[uint32]int
	checkpoints map[uint32]*click.Router
	orphans     map[uint32][]pendingPacket

	// Counters.
	Boots, Suspends, Resumes, Destroys uint64
	DroppedNoModule                    uint64
	DroppedNoMemory                    uint64
	// Failure counters.
	Crashes, BootFailures, Respawns uint64
	Outages, Evictions              uint64
	Checkpoints, Restores           uint64
	DroppedBufferFull               uint64
	DroppedTimeout                  uint64
	DroppedDown                     uint64
	DroppedInFlight                 uint64
	// PipelinePackets counts packets landed on a module's Exec.
	PipelinePackets uint64
	// pipelineRetired carries the packet/batch/drop totals of
	// destroyed VMs' Execs so PipelineCounters stays monotonic;
	// pipelineRetiredBy does the same for the per-reason drop split.
	pipelineRetired   [3]uint64
	pipelineRetiredBy [click.NumDropReasons]uint64
}

// New builds a platform attached to a simulator.
func New(sim *netsim.Sim, model Model, memTotalMB int) *Platform {
	p := &Platform{
		sim:            sim,
		model:          model,
		MemTotalMB:     memTotalMB,
		vms:            make(map[int]*VM),
		byAddr:         make(map[uint32]*VM),
		specs:          make(map[uint32]*ModuleSpec),
		respawn:        make(map[uint32]int),
		failBoots:      make(map[uint32]int),
		checkpoints:    make(map[uint32]*click.Router),
		orphans:        make(map[uint32][]pendingPacket),
		PendingLimit:   256,
		PendingTimeout: 5 * netsim.Second,
		RespawnBase:    netsim.Millis(10),
		RespawnMax:     2 * netsim.Second,
	}
	p.now = sim.Now
	p.landFn = p.land
	return p
}

// Model returns the platform's calibrated model.
func (p *Platform) Model() Model { return p.model }

// Register installs a module spec (the controller's OpenFlow rule +
// image). The VM boots lazily on the first packet — except for
// modules containing traffic generators (zero-input elements like
// TimedSource), which would otherwise never run and are booted
// immediately.
func (p *Platform) Register(spec ModuleSpec) error {
	if _, dup := p.specs[spec.Addr]; dup {
		return fmt.Errorf("platform: address %s already registered", packet.IPString(spec.Addr))
	}
	cfg, err := clicklang.Parse(spec.Config)
	if err != nil {
		return fmt.Errorf("platform: %v", err)
	}
	s := spec
	s.hasSource = configHasSource(cfg)
	p.specs[spec.Addr] = &s
	if s.hasSource {
		if vm := p.instantiate(&s); vm == nil {
			delete(p.specs, spec.Addr)
			return fmt.Errorf("platform: no memory for source module %s", packet.IPString(spec.Addr))
		}
	}
	return nil
}

// configHasSource reports whether a configuration contains a
// zero-input traffic generator.
func configHasSource(cfg *clicklang.Config) bool {
	for _, d := range cfg.Decls {
		f := click.Lookup(d.Class)
		if f == nil {
			continue
		}
		if el := f(); el.InPorts() == 0 {
			return true
		}
	}
	return false
}

// Unregister removes a module and destroys its VM if it was the only
// occupant. Unregistering a crashed module cancels its pending
// respawn and discards its checkpoint and orphaned packets.
func (p *Platform) Unregister(addr uint32) {
	delete(p.specs, addr)
	delete(p.respawn, addr)
	delete(p.failBoots, addr)
	delete(p.checkpoints, addr)
	delete(p.orphans, addr)
	delete(p.pathRings, addr)
	if vm := p.byAddr[addr]; vm != nil {
		delete(p.byAddr, addr)
		for i, s := range vm.Specs {
			if s.Addr == addr {
				vm.Specs = append(vm.Specs[:i], vm.Specs[i+1:]...)
				break
			}
		}
		if len(vm.Specs) == 0 {
			p.destroy(vm)
		}
	}
}

// ResidentVMs returns the number of instantiated guests.
func (p *Platform) ResidentVMs() int { return len(p.vms) }

// RegisteredModules returns the number of registered module specs.
func (p *Platform) RegisteredModules() int { return len(p.specs) }

// HasModule reports whether a module spec is registered at addr — the
// controller's restart-recovery inventory probe.
func (p *Platform) HasModule(addr uint32) bool {
	_, ok := p.specs[addr]
	return ok
}

// Spec returns the module spec registered at addr.
func (p *Platform) Spec(addr uint32) (ModuleSpec, bool) {
	if s, ok := p.specs[addr]; ok {
		return *s, true
	}
	return ModuleSpec{}, false
}

// Deliver is the back-end switch datapath: a packet arriving for a
// module address is steered to its VM, booting or resuming it first
// if needed (the switch controller of §5). out is invoked, in virtual
// time, for every packet the module emits.
func (p *Platform) Deliver(pkt *packet.Packet, out func(iface int, pk *packet.Packet)) {
	if p.down {
		p.DroppedDown++
		return
	}
	vm := p.byAddr[pkt.DstIP]
	if vm == nil {
		spec := p.specs[pkt.DstIP]
		if spec == nil {
			p.DroppedNoModule++
			return
		}
		if p.respawn[pkt.DstIP] > 0 {
			// A respawn is already scheduled with backoff; queue the
			// packet for the replacement guest instead of racing it.
			p.stashOrphan(pkt.DstIP, pendingPacket{pkt: pkt, out: out, enq: p.sim.Now()})
			return
		}
		vm = p.instantiate(spec)
		if vm == nil {
			p.DroppedNoMemory++
			return
		}
	}
	switch vm.State {
	case VMBooting, VMResuming, VMSuspending:
		p.buffer(vm, pendingPacket{pkt: pkt, out: out, enq: p.sim.Now()})
	case VMSuspended:
		p.buffer(vm, pendingPacket{pkt: pkt, out: out, enq: p.sim.Now()})
		p.resume(vm)
	case VMRunning:
		p.process(vm, pkt, out)
	}
}

// buffer appends to a VM's boot buffer, enforcing the bound and
// arming the staleness timeout.
func (p *Platform) buffer(vm *VM, pp pendingPacket) {
	if p.PendingLimit > 0 && len(vm.pending) >= p.PendingLimit {
		p.DroppedBufferFull++
		return
	}
	vm.pending = append(vm.pending, pp)
	if p.PendingTimeout > 0 {
		p.sim.After(p.PendingTimeout, func() { p.expirePending(vm) })
	}
}

// expirePending drops boot-buffered packets that waited longer than
// PendingTimeout on a VM that still is not running.
func (p *Platform) expirePending(vm *VM) {
	if _, alive := p.vms[vm.ID]; !alive || vm.State == VMRunning {
		return
	}
	deadline := p.sim.Now() - p.PendingTimeout
	kept := vm.pending[:0]
	for _, pp := range vm.pending {
		if pp.enq <= deadline {
			p.DroppedTimeout++
			continue
		}
		kept = append(kept, pp)
	}
	vm.pending = kept
}

// stashOrphan queues a packet whose guest died, bounded like the boot
// buffer.
func (p *Platform) stashOrphan(addr uint32, pp pendingPacket) {
	if p.PendingLimit > 0 && len(p.orphans[addr]) >= p.PendingLimit {
		p.DroppedBufferFull++
		return
	}
	p.orphans[addr] = append(p.orphans[addr], pp)
}

// instantiate places a spec into a VM: either consolidated into an
// existing stateless VM with room, or into a fresh booting guest.
// Under memory pressure it degrades gracefully by evicting idle
// guests (LRU) before rejecting the boot.
func (p *Platform) instantiate(spec *ModuleSpec) *VM {
	if p.down {
		return nil
	}
	if p.Consolidate && !spec.Stateful && spec.Kind == ClickOS {
		for _, vm := range p.vms {
			if vm.Kind != ClickOS || len(vm.Specs) >= p.consolidateLimit() {
				continue
			}
			if !vmIsStateless(vm) {
				continue
			}
			// Join this VM; no boot needed.
			vm.Specs = append(vm.Specs, spec)
			p.byAddr[spec.Addr] = vm
			p.adoptOrphans(vm, spec.Addr)
			return vm
		}
	}
	mem := p.model.MemMB(spec.Kind)
	if p.MemUsedMB+mem > p.MemTotalMB {
		p.evictForMemory(p.MemUsedMB + mem - p.MemTotalMB)
	}
	if p.MemUsedMB+mem > p.MemTotalMB {
		return nil
	}
	p.MemUsedMB += mem
	p.nextID++
	vm := &VM{
		ID:    p.nextID,
		Kind:  spec.Kind,
		State: VMBooting,
		MemMB: mem,
		Specs: []*ModuleSpec{spec},
	}
	p.vms[vm.ID] = vm
	p.byAddr[spec.Addr] = vm
	p.Boots++
	p.adoptOrphans(vm, spec.Addr)
	boot := p.model.BootLatency(spec.Kind, len(p.vms)-1)
	p.sim.After(boot, func() { p.finishBoot(vm) })
	return vm
}

// adoptOrphans moves packets stranded by a dead guest into the
// replacement's buffer (re-dispatch after recovery), dropping any
// that already exceeded the buffering timeout.
func (p *Platform) adoptOrphans(vm *VM, addr uint32) {
	pend := p.orphans[addr]
	if len(pend) == 0 {
		return
	}
	delete(p.orphans, addr)
	now := p.sim.Now()
	for _, pp := range pend {
		if p.PendingTimeout > 0 && now-pp.enq >= p.PendingTimeout {
			p.DroppedTimeout++
			continue
		}
		p.buffer(vm, pp)
	}
	if vm.State == VMRunning {
		p.flush(vm)
	}
}

// evictForMemory frees at least needMB by destroying idle guests,
// least-recently-active first. Stateless guests are simply destroyed
// (they reboot on demand); stateful guests are checkpointed first so
// their state is restored when traffic re-instantiates them — the
// suspend-to-disk degradation mode. Booting, resuming or
// packet-holding guests are never evicted.
func (p *Platform) evictForMemory(needMB int) {
	var idle []*VM
	for _, vm := range p.vms {
		if vm.State != VMRunning && vm.State != VMSuspended {
			continue
		}
		if len(vm.pending) > 0 {
			continue
		}
		idle = append(idle, vm)
	}
	sort.Slice(idle, func(i, j int) bool {
		if idle[i].LastActive != idle[j].LastActive {
			return idle[i].LastActive < idle[j].LastActive
		}
		return idle[i].ID < idle[j].ID
	})
	freed := 0
	for _, vm := range idle {
		if freed >= needMB {
			return
		}
		if !vmIsStateless(vm) {
			p.checkpointVM(vm)
		}
		freed += vm.MemMB
		p.record("vm-evicted", "memory pressure", vmRef(vm))
		p.destroy(vm)
		p.Evictions++
	}
}

func (p *Platform) consolidateLimit() int {
	if p.ConsolidatePerVM > 0 {
		return p.ConsolidatePerVM
	}
	return 100
}

func vmIsStateless(vm *VM) bool {
	for _, s := range vm.Specs {
		if s.Stateful {
			return false
		}
	}
	return true
}

func (p *Platform) finishBoot(vm *VM) {
	if _, alive := p.vms[vm.ID]; !alive {
		return
	}
	// An armed boot-failure injection fires here: the guest never
	// comes up, its buffered packets move to the orphan queue and the
	// modules are re-instantiated with backoff.
	for _, s := range vm.Specs {
		if p.failBoots[s.Addr] > 0 {
			p.failBoots[s.Addr]--
			if p.failBoots[s.Addr] == 0 {
				delete(p.failBoots, s.Addr)
			}
			p.BootFailures++
			p.failVM(vm, "boot failure")
			return
		}
	}
	vm.State = VMRunning
	for _, s := range vm.Specs {
		delete(p.respawn, s.Addr)
	}
	p.flush(vm)
	// Source modules start ticking as soon as the guest is up.
	for _, spec := range vm.Specs {
		if !spec.hasSource {
			continue
		}
		if x, err := p.execFor(vm, spec.Addr); err == nil {
			p.driveTickers(vm, x, p.transmitSource)
		}
	}
}

// transmitSource is the egress of source modules: traffic they
// originate goes to p.Transmit, or nowhere while it is unset.
func (p *Platform) transmitSource(iface int, pk *packet.Packet) {
	if p.Transmit != nil {
		p.Transmit(iface, pk)
	}
}

// flush pushes buffered packets through the (now running) VM.
func (p *Platform) flush(vm *VM) {
	pend := vm.pending
	vm.pending = nil
	for _, pp := range pend {
		p.process(vm, pp.pkt, pp.out)
	}
}

// process runs one packet through the VM's Click graph after the
// modeled CPU latency.
func (p *Platform) process(vm *VM, pkt *packet.Packet, out func(iface int, pk *packet.Packet)) {
	vm.LastActive = p.sim.Now()
	vm.PacketsProcessed++
	spec := p.specs[pkt.DstIP]
	extra := 0.0
	if spec != nil {
		extra = spec.ExtraCycles
	}
	lat := p.model.ProcessingLatency(len(p.vms), len(vm.Specs), pkt.Len(), extra)
	var f *flight
	if n := len(p.flights); n > 0 {
		f = p.flights[n-1]
		p.flights = p.flights[:n-1]
	} else {
		f = new(flight)
	}
	*f = flight{vm: vm, pkt: pkt, out: out}
	p.sim.AfterArg(lat, p.landFn, f)
}

// land is the event process schedules: it runs the flight's packet
// through its guest, then returns the record to the free list.
func (p *Platform) land(arg any) {
	f := arg.(*flight)
	vm, pkt, out := f.vm, f.pkt, f.out
	*f = flight{}
	p.flights = append(p.flights, f)
	if _, alive := p.vms[vm.ID]; !alive {
		// The guest died (crash, eviction, outage) with this packet in
		// flight.
		p.DroppedInFlight++
		return
	}
	x, err := p.execFor(vm, pkt.DstIP)
	if err != nil {
		return
	}
	x.Transmit = out
	_ = x.RunOne(0, pkt) // a missing injection point is counted as an unwired drop
	p.PipelinePackets++
	// Drive due timed elements (batchers etc.) immediately and schedule
	// their next tick.
	p.driveTickers(vm, x, out)
}

// execFor returns the driver of the module addressed inside the VM,
// building its router on first use. Consolidated VMs keep one router
// per config — the demultiplexing cost is accounted by the CPU model.
func (p *Platform) execFor(vm *VM, addr uint32) (*pipeline.Exec, error) {
	spec := p.specs[addr]
	if spec == nil {
		return nil, fmt.Errorf("platform: no module for %s", packet.IPString(addr))
	}
	if x := vm.execs[addr]; x != nil {
		return x, nil
	}
	// A checkpointed suspend image restores the module's state instead
	// of booting a pristine graph (§5 suspend/resume as the recovery
	// primitive). Images are referenced, not copied: divergence between
	// the checkpoint instant and the crash is not modeled.
	r := p.checkpoints[addr]
	if r != nil {
		p.Restores++
	} else {
		var err error
		if r, err = pipeline.CompileConfig(spec.Config); err != nil {
			return nil, err
		}
	}
	x := pipeline.NewExec(r)
	x.Now = p.now
	if every := p.traceEveryFor(spec); every > 0 {
		x.EnablePathTrace(p.pathRing(addr), every)
	}
	if vm.execs == nil {
		vm.execs = make(map[uint32]*pipeline.Exec)
	}
	vm.execs[addr] = x
	return x, nil
}

// PipelineCounters sums the packet/batch/drop counters of every
// module's Exec on the platform: live ones of resident VMs plus the
// totals retired with destroyed VMs, so the sums are monotonic across
// evictions and crash/respawn cycles.
func (p *Platform) PipelineCounters() (packets, batches, drops uint64) {
	packets, batches, drops = p.pipelineRetired[0], p.pipelineRetired[1], p.pipelineRetired[2]
	for _, vm := range p.vms {
		for _, x := range vm.execs {
			packets += x.Packets
			batches += x.Batches
			drops += x.Drops
		}
	}
	return packets, batches, drops
}

// PipelineFallbackReasons always returns an empty map: every module
// runs on its Exec, so none falls back.
//
// Deprecated: kept only so existing callers still compile.
func (p *Platform) PipelineFallbackReasons() map[string]uint64 {
	return map[string]uint64{}
}

// driveTickers runs a module's schedulable elements through its Exec,
// rescheduling as needed. The chain transmits through out, the egress
// of the packet (or boot) that started it, whichever packets land on
// the module meanwhile.
func (p *Platform) driveTickers(vm *VM, x *pipeline.Exec, out func(iface int, pk *packet.Packet)) {
	x.Transmit = out
	next := x.Tick()
	if next < 0 {
		return
	}
	p.sim.After(next, func() {
		if _, alive := p.vms[vm.ID]; !alive {
			return
		}
		p.driveTickers(vm, x, out)
	})
}

// Suspend checkpoints a running VM (§5). Buffered/new traffic will
// resume it.
func (p *Platform) Suspend(vm *VM) netsim.Time {
	if vm.State != VMRunning {
		return 0
	}
	vm.State = VMSuspending
	d := p.model.SuspendLatency(len(p.vms))
	p.Suspends++
	p.sim.After(d, func() {
		if vm.State == VMSuspending {
			vm.State = VMSuspended
			// The finished suspend image doubles as a crash-recovery
			// checkpoint for stateful modules.
			p.checkpointVM(vm)
			if len(vm.pending) > 0 {
				p.resume(vm)
			}
		}
	})
	return d
}

func (p *Platform) resume(vm *VM) netsim.Time {
	if vm.State != VMSuspended {
		return 0
	}
	vm.State = VMResuming
	d := p.model.ResumeLatency(len(p.vms))
	p.Resumes++
	p.sim.After(d, func() {
		if vm.State == VMResuming {
			vm.State = VMRunning
			p.flush(vm)
		}
	})
	return d
}

// ReclaimIdle destroys stateless VMs and suspends stateful ones that
// have been idle for at least idleFor. It returns the number of VMs
// reclaimed.
func (p *Platform) ReclaimIdle(idleFor netsim.Time) int {
	now := p.sim.Now()
	n := 0
	for _, vm := range p.vms {
		if vm.State != VMRunning || now-vm.LastActive < idleFor || len(vm.pending) > 0 {
			continue
		}
		if vmIsStateless(vm) {
			p.destroy(vm)
		} else {
			p.Suspend(vm)
		}
		n++
	}
	return n
}

func (p *Platform) destroy(vm *VM) {
	if _, alive := p.vms[vm.ID]; !alive {
		return // double-destroy is a no-op
	}
	for _, x := range vm.execs {
		p.pipelineRetired[0] += x.Packets
		p.pipelineRetired[1] += x.Batches
		p.pipelineRetired[2] += x.Drops
		for i, n := range x.DropsBy {
			p.pipelineRetiredBy[i] += n
		}
	}
	delete(p.vms, vm.ID)
	for _, s := range vm.Specs {
		if p.byAddr[s.Addr] == vm {
			delete(p.byAddr, s.Addr)
		}
	}
	p.MemUsedMB -= vm.MemMB
	p.Destroys++
}

// VMFor returns the VM currently serving an address, or nil.
func (p *Platform) VMFor(addr uint32) *VM { return p.byAddr[addr] }

// ---- Failure injection & recovery ------------------------------------

// CrashVM kills the guest currently serving addr (fault injection: a
// guest panic, an OOM kill, a Xen domain failure). Buffered packets
// move to the orphan queue and every module hosted in the guest is
// re-instantiated with capped exponential backoff; stateful modules
// restore from their latest checkpoint. Reports whether a guest was
// actually resident.
func (p *Platform) CrashVM(addr uint32) bool {
	vm := p.byAddr[addr]
	if vm == nil {
		return false
	}
	p.Crashes++
	p.failVM(vm, "crash")
	return true
}

// failVM implements the shared crash/boot-failure path: tear the
// guest down, strand its buffered packets and schedule respawns.
func (p *Platform) failVM(vm *VM, cause string) {
	p.record("vm-crash", cause, vmRef(vm))
	pend := vm.pending
	vm.pending = nil
	vm.State = VMFailed
	p.destroy(vm)
	vm.execs = nil
	for _, pp := range pend {
		p.stashOrphan(pp.pkt.DstIP, pp)
	}
	for _, s := range vm.Specs {
		p.scheduleRespawn(s.Addr)
	}
}

// scheduleRespawn re-instantiates a module's guest after the current
// backoff delay, doubling up to RespawnMax on consecutive failures.
func (p *Platform) scheduleRespawn(addr uint32) {
	attempts := p.respawn[addr]
	p.respawn[addr] = attempts + 1
	delay := p.RespawnBase
	for i := 0; i < attempts && delay < p.RespawnMax; i++ {
		delay *= 2
	}
	if delay > p.RespawnMax {
		delay = p.RespawnMax
	}
	p.sim.After(delay, func() {
		if p.down {
			return // the whole platform died; Recover reboots lazily
		}
		spec := p.specs[addr]
		if spec == nil {
			return // unregistered while the respawn was pending
		}
		if p.byAddr[addr] != nil {
			return // traffic already re-instantiated it
		}
		p.Respawns++
		p.record("vm-respawn", "", packet.IPString(addr))
		if p.instantiate(spec) == nil {
			p.scheduleRespawn(addr) // no memory yet: keep backing off
		}
	})
}

// FailNextBoot arms a boot-failure injection: the next boot of addr's
// guest fails at the end of the boot window, exercising the backoff
// path. May be called repeatedly to fail several consecutive boots.
func (p *Platform) FailNextBoot(addr uint32) {
	p.failBoots[addr]++
}

// Fail takes the whole platform down (power loss, host kernel panic):
// every resident guest dies, in-flight and buffered packets are
// dropped (counted in DroppedDown), and Deliver drops until Recover.
// Module registrations survive — they live in the controller's
// database, not on the host.
func (p *Platform) Fail() {
	if p.down {
		return
	}
	p.down = true
	p.Outages++
	p.record("platform-outage", "", "")
	ids := make([]int, 0, len(p.vms))
	for id := range p.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		vm := p.vms[id]
		if !vmIsStateless(vm) {
			p.checkpointVM(vm)
		}
		p.DroppedDown += uint64(len(vm.pending))
		vm.pending = nil
		vm.State = VMFailed
		p.destroy(vm)
		vm.execs = nil
	}
	for addr, pend := range p.orphans {
		p.DroppedDown += uint64(len(pend))
		delete(p.orphans, addr)
	}
}

// Recover brings a failed platform back up. Guests re-instantiate
// lazily when traffic arrives, exactly like a cold start; stateful
// modules restore from their checkpoints. Respawn backoff state is
// reset — pre-outage crash history is moot after a reboot.
func (p *Platform) Recover() {
	p.down = false
	p.respawn = make(map[uint32]int)
	p.record("platform-recover", "", "")
}

// Down reports whether the platform is in a simulated outage.
func (p *Platform) Down() bool { return p.down }

// Checkpoint snapshots the suspend image of every resident stateful
// module (the operator's periodic checkpoint sweep). Harnesses call
// this on their own schedule so the event heap stays finite.
func (p *Platform) Checkpoint() int {
	n := 0
	ids := make([]int, 0, len(p.vms))
	for id := range p.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		n += p.checkpointVM(p.vms[id])
	}
	return n
}

// checkpointVM records suspend images for a guest's stateful modules.
func (p *Platform) checkpointVM(vm *VM) int {
	n := 0
	for _, s := range vm.Specs {
		if !s.Stateful {
			continue
		}
		if x := vm.execs[s.Addr]; x != nil {
			p.checkpoints[s.Addr] = x.Router()
			p.Checkpoints++
			n++
		}
	}
	return n
}

// PendingBuffered returns the number of packets currently parked in
// boot buffers and orphan queues — traffic neither delivered nor
// dropped yet.
func (p *Platform) PendingBuffered() int {
	n := 0
	for _, vm := range p.vms {
		n += len(vm.pending)
	}
	for _, pend := range p.orphans {
		n += len(pend)
	}
	return n
}

// DroppedTotal sums every explicit drop counter: the invariant the
// chaos tests assert is sent == delivered + DroppedTotal + buffered.
func (p *Platform) DroppedTotal() uint64 {
	return p.DroppedNoModule + p.DroppedNoMemory + p.DroppedBufferFull +
		p.DroppedTimeout + p.DroppedDown + p.DroppedInFlight
}

// DeliverBatch steers a burst of packets, amortizing the per-packet
// datapath bookkeeping: consecutive packets for the same module
// address reuse the resolved guest instead of re-walking the address
// and spec tables. Side effects (boot, resume, processing) are
// scheduled in virtual time exactly as Deliver would — nothing inside
// the loop advances the simulation, so the memo cannot go stale
// mid-batch; it is re-validated against the guest's state anyway.
func (p *Platform) DeliverBatch(pkts []*packet.Packet, out func(iface int, pk *packet.Packet)) {
	var (
		lastAddr uint32
		lastVM   *VM
	)
	for _, pkt := range pkts {
		if lastVM != nil && pkt.DstIP == lastAddr && !p.down && lastVM.State == VMRunning {
			p.process(lastVM, pkt, out)
			continue
		}
		p.Deliver(pkt, out)
		if vm := p.byAddr[pkt.DstIP]; vm != nil && vm.State == VMRunning {
			lastAddr, lastVM = pkt.DstIP, vm
		} else {
			lastVM = nil
		}
	}
}
