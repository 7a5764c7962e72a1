package topology

import (
	"fmt"
	"sort"
	"strings"

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
// Fig. 10 measures separately from checking. It is a fresh Snapshot's
// first Sync.
func (t *Topology) Compile(modules []HostedModule) (*symexec.Network, *NetMap, error) {
	return t.NewSnapshot().Sync(modules)
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

// demux is the platform's address demultiplexer: traffic to a hosted
// module's address goes to that module's branch port (base, base+1,
// ...); traffic to an *unassigned* pool address is dropped (no switch
// rule exists for it — and symbolically it would otherwise loop between
// the platform and its router); everything else follows the
// pass-through port. Module addresses shadow the pass-through, exactly
// like the OpenFlow rules the controller installs (§4.3).
type demux struct {
	addrs    []uint64              // branch i matches addrs[i]; sorted
	singles  []symexec.IntervalSet // singles[i] is {addrs[i]}
	pass     symexec.IntervalSet   // outside the pool and no hosted address
	passPort int
	base     int
}

// newDemux builds the demultiplexer for addresses sorted ascending
// (one may repeat: only its first branch receives traffic). The
// pass-through set is computed here, once per rewire, so Sym
// constrains the pass-through branch once.
func newDemux(addrs []uint64, notPool symexec.IntervalSet, passPort, base int) *demux {
	// Hosted addresses normally lie in the pool, outside notPool: then
	// there is nothing to take out of it.
	pass, cur := notPool, notPool.Cursor()
	for _, a := range addrs {
		if cur.Contains(a) {
			pass = notPool.Minus(symexec.FromValues(addrs), 32)
			break
		}
	}
	return &demux{
		addrs:    addrs,
		singles:  symexec.Singles(addrs),
		pass:     pass,
		passPort: passPort,
		base:     base,
	}
}

// Sym implements symexec.Model in one pass over the addresses: it
// reads the destination's value set once, clones the state only for
// hosted addresses that set contains, and constrains the pass-through
// branch once. Work is linear in the hosted addresses.
func (d *demux) Sym(port int, s *symexec.State) []symexec.Transition {
	vals := s.Values(symexec.FieldDstIP)
	n, cur := 0, vals.Cursor()
	for i := range d.addrs {
		if d.hit(&cur, i) {
			n++
		}
	}
	var out []symexec.Transition
	if n > 0 {
		out = make([]symexec.Transition, 0, n+1)
		cur = vals.Cursor()
		for i := range d.addrs {
			if d.hit(&cur, i) {
				m := s.Clone()
				m.Constrain(symexec.FieldDstIP, d.singles[i])
				out = append(out, symexec.Transition{Port: d.base + i, S: m})
			}
		}
	}
	// Unassigned pool addresses die here.
	if d.passPort >= 0 && s.Constrain(symexec.FieldDstIP, d.pass) {
		out = append(out, symexec.Transition{Port: d.passPort, S: s})
	}
	return out
}

// hit reports whether branch i receives traffic from a state whose
// destination values cur walks: its address is one of them and is not
// a repeat of branch i-1's, which took that traffic first.
func (d *demux) hit(cur *symexec.Cursor, i int) bool {
	return (i == 0 || d.addrs[i-1] != d.addrs[i]) && cur.Contains(d.addrs[i])
}

// Label implements symexec.Labeled: the hosted addresses in branch
// order.
func (d *demux) Label() string {
	parts := make([]string, len(d.addrs))
	for i, a := range d.addrs {
		parts[i] = packet.IPString(uint32(a))
	}
	return "demux[" + strings.Join(parts, " ") + "]"
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
