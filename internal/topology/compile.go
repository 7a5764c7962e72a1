package topology

import (
	"fmt"
	"sort"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

// HostedModule is a processing module placed (or tentatively placed,
// during checking) on a platform.
type HostedModule struct {
	// ID is the module's client-unique identifier; module element
	// nodes are named "<ID>/<element>".
	ID string
	// Platform is the hosting platform node name.
	Platform string
	// Addr is the public IP address assigned by the controller.
	Addr uint32
	// Router is the built Click configuration.
	Router *click.Router
}

// NetMap translates topology/module references to compiled network
// node names.
type NetMap struct {
	entry map[string]string
	mods  map[string]*HostedModule
}

// EntryNode returns the symexec node where traffic *enters* the given
// topology node.
func (m *NetMap) EntryNode(topoName string) (string, bool) {
	n, ok := m.entry[topoName]
	return n, ok
}

// ModuleElem returns the symexec node of a module element.
func (m *NetMap) ModuleElem(moduleID, elem string) string {
	return moduleID + "/" + elem
}

// Module returns a hosted module by ID.
func (m *NetMap) Module(id string) *HostedModule { return m.mods[id] }

// platformTxNode names the egress-side node of a platform.
func platformTxNode(platform string) string { return platform + "/tx" }

// Compile builds the symbolic network snapshot for this topology plus
// the given hosted modules. This is the "compilation" step whose cost
// Fig. 10 measures separately from checking.
func (t *Topology) Compile(modules []HostedModule) (*symexec.Network, *NetMap, error) {
	net := symexec.NewNetwork()
	nm := &NetMap{entry: make(map[string]string), mods: make(map[string]*HostedModule)}

	byPlatform := make(map[string][]*HostedModule)
	for i := range modules {
		m := &modules[i]
		node := t.nodes[m.Platform]
		if node == nil || node.Kind != KindPlatform {
			return nil, nil, fmt.Errorf("topology: module %q: no platform %q", m.ID, m.Platform)
		}
		if _, dup := nm.mods[m.ID]; dup {
			return nil, nil, fmt.Errorf("topology: duplicate module id %q", m.ID)
		}
		nm.mods[m.ID] = m
		byPlatform[m.Platform] = append(byPlatform[m.Platform], m)
	}

	// Pass 1: create nodes.
	for _, name := range t.order {
		n := t.nodes[name]
		switch n.Kind {
		case KindEndpoint:
			if err := net.AddNode(name, endpointModel); err != nil {
				return nil, nil, err
			}
			nm.entry[name] = name
		case KindRouter:
			if err := net.AddNode(name, lpmModel(n.Routes)); err != nil {
				return nil, nil, err
			}
			nm.entry[name] = name
		case KindMiddlebox:
			entry, err := addClickNodes(net, name, n.router)
			if err != nil {
				return nil, nil, err
			}
			nm.entry[name] = entry
		case KindPlatform:
			hosted := byPlatform[name]
			base := t.maxFromPort(name) + 1
			if err := net.AddNode(name, demuxModel(n.Pool, hosted, t.passPort(name), base)); err != nil {
				return nil, nil, err
			}
			nm.entry[name] = name
			if err := net.AddNode(platformTxNode(name), symexec.Forward); err != nil {
				return nil, nil, err
			}
			// Hosted module element graphs.
			for i, m := range hosted {
				entry, err := addClickNodes(net, m.ID, m.Router)
				if err != nil {
					return nil, nil, err
				}
				// Source-only modules receive no traffic: no demux
				// branch to wire.
				if entry != "" {
					if err := net.Connect(name, base+i, entry, 0); err != nil {
						return nil, nil, err
					}
				}
				// Every module exit feeds the platform's tx side.
				for _, exit := range exitNodes(m.ID, m.Router) {
					if err := net.Connect(exit, 0, platformTxNode(name), 0); err != nil {
						return nil, nil, err
					}
				}
			}
		}
	}

	// Pass 2: topology links.
	for _, l := range t.links {
		fromNode, fromPort, err := t.resolveOut(l.From, l.FromPort)
		if err != nil {
			return nil, nil, err
		}
		toNode, toPort, err := t.resolveIn(l.To, l.ToPort, nm)
		if err != nil {
			return nil, nil, err
		}
		if err := net.Connect(fromNode, fromPort, toNode, toPort); err != nil {
			return nil, nil, fmt.Errorf("topology: link %s[%d]->[%d]%s: %v",
				l.From, l.FromPort, l.ToPort, l.To, err)
		}
	}

	// Pass 3: platform tx uplinks.
	for _, name := range t.order {
		n := t.nodes[name]
		if n.Kind != KindPlatform {
			continue
		}
		if n.Uplink == "" {
			continue
		}
		toNode, toPort, err := t.resolveIn(n.Uplink, n.UplinkPort, nm)
		if err != nil {
			return nil, nil, fmt.Errorf("topology: platform %q uplink: %v", name, err)
		}
		if err := net.Connect(platformTxNode(name), 0, toNode, toPort); err != nil {
			return nil, nil, fmt.Errorf("topology: platform %q uplink: %v", name, err)
		}
	}
	return net, nm, nil
}

// maxFromPort returns the largest declared outgoing port of a node.
func (t *Topology) maxFromPort(name string) int {
	maxP := -1
	for _, l := range t.links {
		if l.From == name && l.FromPort > maxP {
			maxP = l.FromPort
		}
	}
	return maxP
}

// passPort returns the platform's pass-through port (the lowest
// declared outgoing port), or -1.
func (t *Topology) passPort(name string) int {
	p := -1
	for _, l := range t.links {
		if l.From == name && (p == -1 || l.FromPort < p) {
			p = l.FromPort
		}
	}
	return p
}

// resolveOut maps a topology (node, port) to the compiled node whose
// output carries traffic leaving it.
func (t *Topology) resolveOut(name string, port int) (string, int, error) {
	n := t.nodes[name]
	if n == nil {
		return "", 0, fmt.Errorf("topology: unknown node %q", name)
	}
	if n.Kind == KindMiddlebox {
		exits := exitsOf(n.router)
		if port >= len(exits) {
			return "", 0, fmt.Errorf("topology: middlebox %q has %d exits, port %d", name, len(exits), port)
		}
		return name + "/" + exits[port].Name(), 0, nil
	}
	return name, port, nil
}

// resolveIn maps a topology (node, port) to the compiled node where
// traffic enters it.
func (t *Topology) resolveIn(name string, port int, nm *NetMap) (string, int, error) {
	n := t.nodes[name]
	if n == nil {
		return "", 0, fmt.Errorf("topology: unknown node %q", name)
	}
	if n.Kind == KindMiddlebox {
		entries := entriesOf(n.router)
		if port >= len(entries) {
			return "", 0, fmt.Errorf("topology: middlebox %q has %d entries, port %d", name, len(entries), port)
		}
		return name + "/" + entries[port].Name(), 0, nil
	}
	if n.Kind == KindPlatform {
		return name, 0, nil
	}
	if n.Kind == KindEndpoint {
		// Arriving traffic terminates at endpoints; injected traffic
		// enters on port 0 (see endpointModel).
		return name, endpointArrivalPort, nil
	}
	return name, port, nil
}

// Endpoint port conventions: injections enter on port 0 and continue
// into the network; traffic delivered by the network enters on the
// arrival port and leaves through the (never-wired) terminal port,
// becoming an egress — otherwise delivered flows would loop back out
// through the endpoint's uplink.
const (
	endpointArrivalPort  = 1
	endpointTerminalPort = 99
)

var endpointModel = symexec.FuncModel(func(port int, s *symexec.State) []symexec.Transition {
	if port == endpointArrivalPort {
		return []symexec.Transition{{Port: endpointTerminalPort, S: s}}
	}
	return []symexec.Transition{{Port: 0, S: s}}
})

// CompileStandaloneModule builds a symbolic network containing just
// one module's element graph — the environment the security checker
// (§4.4) injects unconstrained packets into. It returns the network,
// every entry node (FromNetfront ingresses first, then zero-input
// traffic generators such as TimedSource) and the exit (ToNetfront)
// node names.
func CompileStandaloneModule(id string, r *click.Router) (net *symexec.Network, entries []string, exits []string, err error) {
	net = symexec.NewNetwork()
	if _, err = addClickNodes(net, id, r); err != nil {
		return nil, nil, nil, err
	}
	for _, el := range entriesOf(r) {
		entries = append(entries, id+"/"+el.Name())
	}
	for _, el := range r.Elements() {
		if el.InPorts() == 0 {
			entries = append(entries, id+"/"+el.Name())
		}
	}
	if len(entries) == 0 {
		return nil, nil, nil, fmt.Errorf("topology: %s: module has no ingress and no traffic source", id)
	}
	return net, entries, exitNodes(id, r), nil
}

// addClickNodes adds one symexec node per element of a built Click
// router, named "<prefix>/<element>", wiring them per the
// configuration, and returns the entry (first FromNetfront) node.
func addClickNodes(net *symexec.Network, prefix string, r *click.Router) (entry string, err error) {
	for _, el := range r.Elements() {
		m, ok := el.(symexec.Model)
		if !ok {
			return "", fmt.Errorf("topology: element %s :: %s has no symbolic model", el.Name(), el.Class())
		}
		if err := net.AddNode(prefix+"/"+el.Name(), m); err != nil {
			return "", err
		}
		if entry == "" {
			if inj, ok := el.(click.Injector); ok && inj.InjectionPoint() {
				entry = prefix + "/" + el.Name()
			}
		}
	}
	// entry may be empty for source-only modules (e.g. a TimedSource
	// keepalive generator); callers that require ingress check it.
	for _, c := range r.Config().Conns {
		if err := net.Connect(prefix+"/"+c.From, c.FromPort, prefix+"/"+c.To, c.ToPort); err != nil {
			return "", err
		}
	}
	return entry, nil
}

// exitNodes names the compiled ToNetfront nodes of a module.
func exitNodes(prefix string, r *click.Router) []string {
	var out []string
	for _, el := range exitsOf(r) {
		out = append(out, prefix+"/"+el.Name())
	}
	return out
}

// lpmModel builds the symbolic longest-prefix-match model of a
// routing table (routes must be sorted by descending prefix length).
func lpmModel(routes []Route) symexec.Model {
	type compiled struct {
		in, notIn symexec.IntervalSet
		port      int
	}
	cs := make([]compiled, len(routes))
	for i, r := range routes {
		lo, hi := r.Prefix.Range()
		in := symexec.Span(uint64(lo), uint64(hi))
		cs[i] = compiled{in: in, notIn: in.Complement(32), port: r.Port}
	}
	return symexec.FuncModel(func(port int, s *symexec.State) []symexec.Transition {
		var out []symexec.Transition
		pending := []*symexec.State{s}
		for _, c := range cs {
			var next []*symexec.State
			for _, st := range pending {
				m := st.Clone()
				if m.Constrain(symexec.FieldDstIP, c.in) {
					out = append(out, symexec.Transition{Port: c.port, S: m})
				}
				if st.Constrain(symexec.FieldDstIP, c.notIn) {
					next = append(next, st)
				}
			}
			pending = next
			if len(pending) == 0 {
				break
			}
		}
		return out
	})
}

// demuxModel builds the platform's address demultiplexer: traffic to
// a hosted module's address goes to that module's branch port (base,
// base+1, ...); traffic to an *unassigned* pool address is dropped
// (no switch rule exists for it — and symbolically it would otherwise
// loop between the platform and its router); everything else follows
// the pass-through port. Module addresses shadow the pass-through,
// exactly like the OpenFlow rules the controller installs (§4.3).
func demuxModel(pool packet.Prefix, hosted []*HostedModule, passPort, base int) symexec.Model {
	addrs := make([]uint64, len(hosted))
	for i, m := range hosted {
		addrs[i] = uint64(m.Addr)
	}
	plo, phi := pool.Range()
	notPool := symexec.Span(uint64(plo), uint64(phi)).Complement(32)
	return symexec.FuncModel(func(port int, s *symexec.State) []symexec.Transition {
		var out []symexec.Transition
		rest := s
		for i, a := range addrs {
			m := rest.Clone()
			if m.Constrain(symexec.FieldDstIP, symexec.Single(a)) {
				out = append(out, symexec.Transition{Port: base + i, S: m})
			}
			if !rest.Constrain(symexec.FieldDstIP, symexec.Single(a).Complement(32)) {
				return out
			}
		}
		// Unassigned pool addresses die here.
		if passPort >= 0 && rest.Constrain(symexec.FieldDstIP, notPool) {
			out = append(out, symexec.Transition{Port: passPort, S: rest})
		}
		return out
	})
}

// RouteTo is a convenience Route constructor from CIDR text.
func RouteTo(cidr string, port int) Route {
	return Route{Prefix: packet.MustParsePrefix(cidr), Port: port}
}

// SortRoutes orders routes by descending prefix length (LPM order).
func SortRoutes(routes []Route) {
	sort.SliceStable(routes, func(i, j int) bool {
		return routes[i].Prefix.Bits > routes[j].Prefix.Bits
	})
}
