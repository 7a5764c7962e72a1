// Package topology models the in-network cloud operator's network:
// routers with longest-prefix-match tables, operator middleboxes
// (Click configurations), processing platforms and the special
// "internet" and "client" endpoints (paper Figs. 1 and 3).
//
// A Topology plus a set of hosted (or candidate) processing modules
// compiles into a symexec.Network — the snapshot the controller runs
// static checks over (§4.3: "routing and switch tables, middlebox
// configurations, tunnels, etc.").
package topology

import (
	"fmt"
	"sort"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/packet"
)

// Well-known endpoint names from the requirements API (§4.2).
const (
	NodeInternet = "internet"
	NodeClient   = "client"
)

// Kind classifies topology nodes.
type Kind int

// Node kinds.
const (
	KindEndpoint Kind = iota
	KindRouter
	KindMiddlebox
	KindPlatform
)

func (k Kind) String() string {
	switch k {
	case KindEndpoint:
		return "endpoint"
	case KindRouter:
		return "router"
	case KindMiddlebox:
		return "middlebox"
	case KindPlatform:
		return "platform"
	default:
		return "unknown"
	}
}

// Route is one LPM routing table entry: traffic to Prefix leaves
// through output Port.
type Route struct {
	Prefix packet.Prefix
	Port   int
}

// Node is a vertex in the operator topology.
type Node struct {
	Name string
	Kind Kind
	// Routes is the routing table (routers only).
	Routes []Route
	// Config is Click source (middleboxes only).
	Config string
	// Pool is the public address pool for hosted modules (platforms
	// only).
	Pool packet.Prefix
	// Uplink is the node that traffic leaving hosted modules is
	// forwarded to (platforms only).
	Uplink     string
	UplinkPort int

	router *click.Router // built middlebox instance
}

// Link is a unidirectional edge between topology nodes.
type Link struct {
	From     string
	FromPort int
	To       string
	ToPort   int
}

// Topology is the operator's network graph.
type Topology struct {
	Name string
	// ClientNet is the operator's residential client subnet (the
	// "client" endpoint of the requirements language).
	ClientNet packet.Prefix

	nodes map[string]*Node
	order []string
	links []Link
}

// New returns an empty topology with the given residential client
// subnet.
func New(name string, clientNet packet.Prefix) *Topology {
	return &Topology{
		Name:      name,
		ClientNet: clientNet,
		nodes:     make(map[string]*Node),
	}
}

func (t *Topology) add(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("topology: empty node name")
	}
	if _, dup := t.nodes[n.Name]; dup {
		return fmt.Errorf("topology: node %q already exists", n.Name)
	}
	t.nodes[n.Name] = n
	t.order = append(t.order, n.Name)
	return nil
}

// AddEndpoint adds an endpoint node ("internet", "client", a content
// provider's origin, ...).
func (t *Topology) AddEndpoint(name string) error {
	return t.add(&Node{Name: name, Kind: KindEndpoint})
}

// AddRouter adds a router with its routing table.
func (t *Topology) AddRouter(name string, routes ...Route) error {
	if len(routes) == 0 {
		return fmt.Errorf("topology: router %q needs at least one route", name)
	}
	sorted := append([]Route(nil), routes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Prefix.Bits > sorted[j].Prefix.Bits
	})
	return t.add(&Node{Name: name, Kind: KindRouter, Routes: sorted})
}

// AddMiddlebox adds an operator middlebox defined by Click source.
// The configuration must contain at least one FromNetfront and one
// ToNetfront.
func (t *Topology) AddMiddlebox(name, config string) error {
	cfg, err := clicklang.Parse(config)
	if err != nil {
		return fmt.Errorf("topology: middlebox %q: %v", name, err)
	}
	r, err := click.Build(cfg)
	if err != nil {
		return fmt.Errorf("topology: middlebox %q: %v", name, err)
	}
	if r.NumSources() == 0 {
		return fmt.Errorf("topology: middlebox %q has no FromNetfront", name)
	}
	if len(exitsOf(r)) == 0 {
		return fmt.Errorf("topology: middlebox %q has no ToNetfront", name)
	}
	return t.add(&Node{Name: name, Kind: KindMiddlebox, Config: config, router: r})
}

// AddPlatform adds a processing platform with a module address pool
// and the uplink node that module egress traffic is handed to.
func (t *Topology) AddPlatform(name string, pool packet.Prefix, uplink string, uplinkPort int) error {
	return t.add(&Node{
		Name: name, Kind: KindPlatform, Pool: pool,
		Uplink: uplink, UplinkPort: uplinkPort,
	})
}

// Connect adds a unidirectional link.
func (t *Topology) Connect(from string, fromPort int, to string, toPort int) error {
	if _, ok := t.nodes[from]; !ok {
		return fmt.Errorf("topology: unknown node %q", from)
	}
	if _, ok := t.nodes[to]; !ok {
		return fmt.Errorf("topology: unknown node %q", to)
	}
	t.links = append(t.links, Link{From: from, FromPort: fromPort, To: to, ToPort: toPort})
	return nil
}

// ConnectBoth adds a bidirectional link as two unidirectional ones
// using the same port numbers on both sides.
func (t *Topology) ConnectBoth(a string, aPort int, b string, bPort int) error {
	if err := t.Connect(a, aPort, b, bPort); err != nil {
		return err
	}
	return t.Connect(b, bPort, a, aPort)
}

// Node returns the named node, or nil.
func (t *Topology) Node(name string) *Node { return t.nodes[name] }

// Platforms returns the names of all platform nodes, in insertion
// order.
func (t *Topology) Platforms() []string {
	var out []string
	for _, n := range t.order {
		if t.nodes[n].Kind == KindPlatform {
			out = append(out, n)
		}
	}
	return out
}

// Nodes returns all node names in insertion order.
func (t *Topology) Nodes() []string { return append([]string(nil), t.order...) }

// NumMiddleboxes counts middlebox nodes.
func (t *Topology) NumMiddleboxes() int {
	c := 0
	for _, n := range t.nodes {
		if n.Kind == KindMiddlebox {
			c++
		}
	}
	return c
}

// exitsOf returns the ToNetfront elements of a built click router in
// declaration order.
func exitsOf(r *click.Router) []click.Element {
	var out []click.Element
	for _, el := range r.Elements() {
		if el.Class() == "ToNetfront" {
			out = append(out, el)
		}
	}
	return out
}

// entriesOf returns the FromNetfront elements in declaration order.
func entriesOf(r *click.Router) []click.Element {
	var out []click.Element
	for _, el := range r.Elements() {
		if inj, ok := el.(click.Injector); ok && inj.InjectionPoint() {
			out = append(out, el)
		}
	}
	return out
}
