package topology

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/in-net/innet/internal/symexec"
)

// Snapshot keeps one compiled network in step with a changing list of
// hosted modules. Sync diffs the list against the modules the network
// already holds, by module ID, and edits only what changed: it removes
// the element nodes of modules that left, adds those of modules that
// arrived, and re-models and rewires the demultiplexer of each platform
// whose module set changed. This is SymNet's "compile the network once,
// inject many symbolic packets": admitting one module costs one
// module's nodes, not the whole network's.
//
// A Snapshot is not safe for concurrent use, and the topology must not
// change while it is in use.
type Snapshot struct {
	t *Topology
	// net is nil until a Sync builds the topology's own nodes.
	net       *symexec.Network
	nm        *NetMap
	held      map[string]*heldModule
	platforms map[string]*platformDemux
	// nodesAdded counts module element nodes Sync has added.
	nodesAdded int
}

// heldModule is a module in the network: a copy of what Sync was
// given, which the NetMap hands out, plus its demux entry node.
type heldModule struct {
	HostedModule
	entry string
}

// platformDemux is one platform's demultiplexer state.
type platformDemux struct {
	order    int // position in the topology's node order
	notPool  symexec.IntervalSet
	passPort int
	base     int
	// hosted is the branch order: by address, then ID.
	hosted []*heldModule
	// branches is how many branch ports the last rewire numbered.
	branches int
	// dirty marks a module set changed since the last rewire.
	dirty bool
}

// NewSnapshot returns an empty snapshot of the topology. The first
// Sync compiles the whole network.
func (t *Topology) NewSnapshot() *Snapshot {
	return &Snapshot{t: t}
}

// NodesAdded counts the module element nodes Sync has added over the
// snapshot's life: its work, in nodes, beyond the topology's own.
func (s *Snapshot) NodesAdded() int { return s.nodesAdded }

// Sync brings the network to the topology plus exactly modules and
// returns it with its name map. Both stay valid, and are edited in
// place, until the next Sync. A module whose Platform, Addr or Router
// differs from the one held under its ID is removed and added again.
//
// The outcome, error text included, is a fresh Compile's: should an
// edit fail, the snapshot drops what it held and compiles the list
// afresh, and a snapshot whose compile fails is left empty.
func (s *Snapshot) Sync(modules []HostedModule) (*symexec.Network, *NetMap, error) {
	want, err := s.t.checkModules(modules)
	if err != nil {
		return nil, nil, err
	}
	if s.net != nil {
		if err := s.apply(modules, want); err == nil {
			return s.net, s.nm, nil
		}
	}
	err = s.build()
	if err == nil {
		err = s.apply(modules, want)
	}
	if err != nil {
		s.net, s.nm, s.held, s.platforms = nil, nil, nil, nil
		return nil, nil, err
	}
	return s.net, s.nm, nil
}

// checkModules indexes a module list by ID, refusing one no network
// can hold: a module on a node that is not a platform, or two modules
// with one ID.
func (t *Topology) checkModules(modules []HostedModule) (map[string]*HostedModule, error) {
	byID := make(map[string]*HostedModule, len(modules))
	for i := range modules {
		m := &modules[i]
		node := t.nodes[m.Platform]
		if node == nil || node.Kind != KindPlatform {
			return nil, fmt.Errorf("topology: module %q: no platform %q", m.ID, m.Platform)
		}
		if byID[m.ID] != nil {
			return nil, fmt.Errorf("topology: duplicate module id %q", m.ID)
		}
		byID[m.ID] = m
	}
	return byID, nil
}

// build compiles the topology's own nodes and links, with every
// platform's demultiplexer empty.
func (s *Snapshot) build() error {
	t := s.t
	net := symexec.NewNetwork()
	s.net = net
	s.nm = &NetMap{entry: make(map[string]string), mods: make(map[string]*HostedModule)}
	s.held = make(map[string]*heldModule)
	s.platforms = make(map[string]*platformDemux)

	// Nodes.
	for i, name := range t.order {
		n := t.nodes[name]
		switch n.Kind {
		case KindEndpoint:
			if err := net.AddNode(name, endpointModel); err != nil {
				return err
			}
			s.nm.entry[name] = name
		case KindRouter:
			if err := net.AddNode(name, lpmModel(n.Routes)); err != nil {
				return err
			}
			s.nm.entry[name] = name
		case KindMiddlebox:
			entry, err := addClickNodes(net, name, n.router)
			if err != nil {
				return err
			}
			s.nm.entry[name] = entry
		case KindPlatform:
			plo, phi := n.Pool.Range()
			p := &platformDemux{
				order:    i,
				notPool:  symexec.Span(uint64(plo), uint64(phi)).Complement(32),
				passPort: t.passPort(name),
				base:     t.maxFromPort(name) + 1,
			}
			s.platforms[name] = p
			if err := net.AddNode(name, p.model()); err != nil {
				return err
			}
			s.nm.entry[name] = name
			if err := net.AddNode(platformTxNode(name), symexec.Forward); err != nil {
				return err
			}
		}
	}

	// Topology links.
	for _, l := range t.links {
		fromNode, fromPort, err := t.resolveOut(l.From, l.FromPort)
		if err != nil {
			return err
		}
		toNode, toPort, err := t.resolveIn(l.To, l.ToPort, s.nm)
		if err != nil {
			return err
		}
		if err := net.Connect(fromNode, fromPort, toNode, toPort); err != nil {
			return fmt.Errorf("topology: link %s[%d]->[%d]%s: %v",
				l.From, l.FromPort, l.ToPort, l.To, err)
		}
	}

	// Platform tx uplinks.
	for _, name := range t.order {
		n := t.nodes[name]
		if n.Kind != KindPlatform || n.Uplink == "" {
			continue
		}
		toNode, toPort, err := t.resolveIn(n.Uplink, n.UplinkPort, s.nm)
		if err != nil {
			return fmt.Errorf("topology: platform %q uplink: %v", name, err)
		}
		if err := net.Connect(platformTxNode(name), 0, toNode, toPort); err != nil {
			return fmt.Errorf("topology: platform %q uplink: %v", name, err)
		}
	}
	return nil
}

// apply edits the network to hold exactly modules, indexed by ID in
// want: removals first, then additions in platform order and branch
// order within a platform, then one rewire per changed platform.
func (s *Snapshot) apply(modules []HostedModule, want map[string]*HostedModule) error {
	for id, h := range s.held {
		if m := want[id]; m == nil || m.Platform != h.Platform || m.Addr != h.Addr || m.Router != h.Router {
			s.remove(h)
		}
	}
	var add []*HostedModule
	for i := range modules {
		if s.held[modules[i].ID] == nil {
			add = append(add, &modules[i])
		}
	}
	slices.SortFunc(add, func(a, b *HostedModule) int {
		return cmp.Or(
			cmp.Compare(s.platforms[a.Platform].order, s.platforms[b.Platform].order),
			cmp.Compare(a.Addr, b.Addr),
			cmp.Compare(a.ID, b.ID))
	})
	for _, m := range add {
		if err := s.add(m); err != nil {
			return err
		}
	}
	for name, p := range s.platforms {
		if p.dirty {
			if err := s.rewire(name, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// remove deletes a held module's element nodes. The wire from its
// platform's demultiplexer goes at the platform's rewire.
func (s *Snapshot) remove(h *heldModule) {
	for _, el := range h.Router.Elements() {
		s.net.RemoveNode(h.ID + "/" + el.Name())
	}
	p := s.platforms[h.Platform]
	p.hosted = slices.DeleteFunc(p.hosted, func(o *heldModule) bool { return o == h })
	p.dirty = true
	delete(s.held, h.ID)
	delete(s.nm.mods, h.ID)
}

// add puts a module's element graph into the network and feeds every
// module exit to its platform's tx side.
func (s *Snapshot) add(m *HostedModule) error {
	entry, err := addClickNodes(s.net, m.ID, m.Router)
	if err != nil {
		return err
	}
	s.nodesAdded += len(m.Router.Elements())
	tx := platformTxNode(m.Platform)
	for _, exit := range exitNodes(m.ID, m.Router) {
		if err := s.net.Connect(exit, 0, tx, 0); err != nil {
			return err
		}
	}
	h := &heldModule{HostedModule: *m, entry: entry}
	s.held[m.ID] = h
	s.nm.mods[m.ID] = &h.HostedModule
	p := s.platforms[m.Platform]
	p.hosted = append(p.hosted, h)
	p.dirty = true
	return nil
}

// rewire re-models a platform's demultiplexer for its current modules
// and wires one branch per module that receives traffic. Branches are
// numbered in (address, ID) order, so the numbering, and with it
// symexec's exploration order, is a function of the module set alone.
func (s *Snapshot) rewire(name string, p *platformDemux) error {
	for i := 0; i < p.branches; i++ {
		s.net.Disconnect(name, p.base+i)
	}
	slices.SortFunc(p.hosted, func(a, b *heldModule) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.ID, b.ID))
	})
	if err := s.net.SetModel(name, p.model()); err != nil {
		return err
	}
	for i, h := range p.hosted {
		// Source-only modules receive no traffic: no branch to wire.
		if h.entry == "" {
			continue
		}
		if err := s.net.Connect(name, p.base+i, h.entry, 0); err != nil {
			return err
		}
	}
	p.branches, p.dirty = len(p.hosted), false
	return nil
}

// model builds the demultiplexer for the platform's modules in branch
// order.
func (p *platformDemux) model() *demux {
	addrs := make([]uint64, len(p.hosted))
	for i, h := range p.hosted {
		addrs[i] = uint64(h.Addr)
	}
	return newDemux(addrs, p.notPool, p.passPort, p.base)
}
