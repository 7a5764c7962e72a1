package api

import (
	"fmt"
	"strings"
	"sync"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/vswitch"
)

// Simulator hosts an in-process dataplane emulation behind innetd's
// -simulate mode: one simulated platform per topology platform, each
// fronted by a virtual switch (§5: the vswitch redirects flows to the
// processing modules), kept a function of the controller's state by a
// platform.Reconciler. Clients can then POST /v1/inject test packets
// and watch their modules process them — boot-on-first-packet latency
// included.
type Simulator struct {
	mu        sync.Mutex
	sim       *netsim.Sim
	platforms map[string]*platform.Platform
	switches  map[string]*vswitch.Switch
	recon     *platform.Reconciler
	// emit collects module output during one Inject; the vswitch
	// ToModule closures read it, so it is only set under mu.
	emit func(iface int, out *packet.Packet)
}

// NewSimulator builds platforms for the given topology platform
// names.
func NewSimulator(platformNames []string) *Simulator {
	s := &Simulator{
		sim:       netsim.New(1),
		platforms: make(map[string]*platform.Platform),
		switches:  make(map[string]*vswitch.Switch),
	}
	// out is bound once: it reads s.emit when a module transmits.
	out := func(iface int, pk *packet.Packet) {
		if s.emit != nil {
			s.emit(iface, pk)
		}
	}
	for _, name := range platformNames {
		p := platform.New(s.sim, platform.DefaultModel(), 16*1024)
		s.platforms[name] = p
		sw := vswitch.New()
		sw.ToModule = func(_ uint32, pk *packet.Packet) { p.Deliver(pk, out) }
		s.switches[name] = sw
	}
	s.recon = platform.NewReconciler(s.platforms, s.switches)
	return s
}

// attach makes the dataplane follow ctl's state. The watcher runs
// under ctl's lock: no method may call into ctl while holding s.mu.
func (s *Simulator) attach(ctl *controller.Controller) {
	ctl.Watch(func(st *journal.State) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.recon.Reconcile(st)
	})
}

// Err reports why deployment id is not installed (nil when it is, or
// when it is failed or gone).
func (s *Simulator) Err(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recon.Err(id)
}

// RegisterMetrics folds every simulated platform's lifecycle/drop
// counters and every vswitch's dispatch counters into the registry.
// Platform callbacks read under s.mu (the platforms are driven under
// it); vswitch callbacks are wait-free atomics.
func (s *Simulator) RegisterMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, p := range s.platforms {
		p.RegisterMetrics(r, name, &s.mu)
		s.switches[name].RegisterMetrics(r, "platform", name)
	}
}

// RegisterDrops contributes every simulated platform's drop counters
// (platform lifecycle drops plus compiled-pipeline per-reason drops)
// and every vswitch's dispatch drops to the unified attribution hub.
// Platform reads take s.mu like RegisterMetrics; vswitch reads are
// wait-free atomics.
func (s *Simulator) RegisterDrops(d *telemetry.Drops) {
	if d == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, p := range s.platforms {
		p.RegisterDrops(d, &s.mu)
		s.switches[name].RegisterDrops(d)
	}
}

// SetRecorder points every simulated platform's fault events at one
// shared flight recorder. Call before traffic flows.
func (s *Simulator) SetRecorder(rec *telemetry.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.platforms {
		p.Rec = rec
	}
}

// SetTraceEvery sets the default per-flow path-trace sampling rate on
// every simulated platform (a module's own TraceEvery still wins).
func (s *Simulator) SetTraceEvery(every int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.platforms {
		p.TraceEvery = every
	}
}

// PathTraces returns the n most recent sampled path traces for the
// module at addr on the named platform (newest first; n <= 0 = all
// retained).
func (s *Simulator) PathTraces(platformName string, addr uint32, n int) []telemetry.PathTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.platforms[platformName]
	if !ok {
		return nil
	}
	return p.PathTraces(addr, n)
}

// Drops reports each platform's total dropped-packet count (the sum
// of its Dropped* counters), for /v1/health.
func (s *Simulator) Drops() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.platforms))
	for name, p := range s.platforms {
		out[name] = p.DroppedTotal()
	}
	return out
}

// InjectRequest is the POST /v1/inject body: a test packet aimed at a
// deployed module's address.
type InjectRequest struct {
	Dst     string `json:"dst"`
	Src     string `json:"src"`
	Proto   string `json:"proto"` // udp | tcp | icmp
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	Payload string `json:"payload,omitempty"`
	// Count sends the packet multiple times (default 1).
	Count int `json:"count,omitempty"`
}

// EmittedPacket describes one packet a module emitted.
type EmittedPacket struct {
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	Proto     string  `json:"proto"`
	SrcPort   uint16  `json:"src_port"`
	DstPort   uint16  `json:"dst_port"`
	Payload   string  `json:"payload"`
	LatencyMS float64 `json:"latency_ms"`
}

// InjectResponse reports what the module did with the test traffic.
type InjectResponse struct {
	Platform string          `json:"platform"`
	Sent     int             `json:"sent"`
	Emitted  []EmittedPacket `json:"emitted"`
	// BootedVM is true when this injection instantiated the VM.
	BootedVM bool `json:"booted_vm"`
}

// Inject delivers test packets to the module owning the destination
// address and runs the virtual clock until the dataplane drains
// (bounded by a 10-virtual-minute horizon so batching modules
// release).
func (s *Simulator) Inject(req InjectRequest) (*InjectResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst, err := packet.ParseIP(req.Dst)
	if err != nil {
		return nil, fmt.Errorf("api: bad dst: %v", err)
	}
	platName := ""
	for name, q := range s.platforms {
		if q.HasModule(dst) {
			platName = name
		}
	}
	p := s.platforms[platName]
	if p == nil {
		return nil, fmt.Errorf("api: no deployed module at %s", req.Dst)
	}
	src := packet.MustParseIP("192.0.2.99")
	if req.Src != "" {
		if src, err = packet.ParseIP(req.Src); err != nil {
			return nil, fmt.Errorf("api: bad src: %v", err)
		}
	}
	var proto packet.Proto
	switch strings.ToLower(req.Proto) {
	case "", "udp":
		proto = packet.ProtoUDP
	case "tcp":
		proto = packet.ProtoTCP
	case "icmp":
		proto = packet.ProtoICMP
	default:
		return nil, fmt.Errorf("api: unknown proto %q", req.Proto)
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	if count > 10000 {
		return nil, fmt.Errorf("api: count %d too large", count)
	}

	resp := &InjectResponse{Platform: platName, Sent: count}
	booted := p.VMFor(dst) == nil
	start := s.sim.Now()
	// Injected packets enter through the platform's vswitch — the same
	// flow-rule dispatch a real deployment sees — and the ToModule
	// closure delivers into the platform. emit collects what the
	// module sends back out.
	s.emit = func(iface int, out *packet.Packet) {
		resp.Emitted = append(resp.Emitted, EmittedPacket{
			Src:       packet.IPString(out.SrcIP),
			Dst:       packet.IPString(out.DstIP),
			Proto:     out.Protocol.String(),
			SrcPort:   out.SrcPort,
			DstPort:   out.DstPort,
			Payload:   string(out.Payload),
			LatencyMS: float64(s.sim.Now()-start) / 1e6,
		})
	}
	defer func() { s.emit = nil }()
	sw := s.switches[platName]
	for i := 0; i < count; i++ {
		sw.Process(&packet.Packet{
			Protocol: proto,
			SrcIP:    src,
			DstIP:    dst,
			SrcPort:  req.SrcPort,
			DstPort:  req.DstPort,
			TTL:      64,
			Payload:  []byte(req.Payload),
		})
	}
	// Drain the virtual clock (bounded: batchers may hold packets).
	s.sim.RunUntil(start + 10*60*netsim.Second)
	resp.BootedVM = booted
	if resp.Emitted == nil {
		resp.Emitted = []EmittedPacket{}
	}
	return resp, nil
}
