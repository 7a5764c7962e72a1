package faults

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

// ReplNode is one replica of a ReplGroup: a controller, its journal
// store, and the replication node that binds them.
type ReplNode struct {
	Name  string
	Dir   string
	Ctl   *controller.Controller
	Store *journal.Store
	Node  *replication.Node
	// Rec is the node's flight recorder: controller, journal and
	// replication events all land here, so chaos tests can assert the
	// fault sequence a postmortem would show.
	Rec *telemetry.Recorder
}

// ReplGroupOptions shapes an N-replica controller group. Zero values
// get chaos-suite-tight defaults.
type ReplGroupOptions struct {
	// Dirs are the N journal directories (required, one per replica;
	// len(Dirs) fixes the group size). N = 2 is a leader/standby pair:
	// the standby promotes itself directly after FailoverAfter of
	// silence, with no vote. N ≥ 3 gets quorum semantics.
	Dirs []string
	// AckTimeout bounds sync replication: how long a deploy blocks
	// before a minority leader fences itself (default 500ms).
	AckTimeout time.Duration
	// FailoverAfter is a follower's silence threshold before it
	// campaigns; 0 disables automatic elections (manual Promote).
	FailoverAfter time.Duration
	// ElectionTimeout bounds one vote round and paces campaign
	// retries (default 200ms); a pair holds no votes and ignores it.
	ElectionTimeout time.Duration
	// HeartbeatEvery / RedialEvery pace the streams (defaults 20ms /
	// 10ms).
	HeartbeatEvery, RedialEvery time.Duration
	// Logf receives protocol events (nil = silent).
	Logf func(format string, args ...any)
}

func (o *ReplGroupOptions) defaults() {
	if o.AckTimeout <= 0 {
		o.AckTimeout = 500 * time.Millisecond
	}
	if o.ElectionTimeout <= 0 {
		o.ElectionTimeout = 200 * time.Millisecond
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 20 * time.Millisecond
	}
	if o.RedialEvery <= 0 {
		o.RedialEvery = 10 * time.Millisecond
	}
}

// ReplGroup is an N-replica controller group over real loopback TCP
// with a per-link fault surface: crash any node (and restart it into
// the same listen address), partition the group into arbitrary sets,
// or lag the stream toward one node. It is the replication analogue
// of Cluster; with two dirs it is the leader/standby pair.
type ReplGroup struct {
	Nodes []*ReplNode
	opts  ReplGroupOptions
	gate  *meshGate

	mu      sync.Mutex
	crashed map[int]bool
	// addrs pins each replica's replication listen address so a
	// restarted node rebinds where its peers expect it.
	addrs []string
}

// NewReplGroup boots len(opts.Dirs) replicas: node 0 as the leader,
// the rest as followers, every node holding every other as a peer.
// All replication dials (streams and vote solicitations) go through a
// mesh gate the fault methods control.
func NewReplGroup(opts ReplGroupOptions) (*ReplGroup, error) {
	if len(opts.Dirs) < 2 {
		return nil, fmt.Errorf("faults: replication group needs ≥ 2 dirs, got %d", len(opts.Dirs))
	}
	opts.defaults()
	g := &ReplGroup{
		opts:    opts,
		gate:    newMeshGate(),
		crashed: make(map[int]bool),
		addrs:   make([]string, len(opts.Dirs)),
	}
	for i, dir := range opts.Dirs {
		role := controller.RoleStandby
		if i == 0 {
			role = controller.RoleLeader
		}
		node, err := g.bootReplica(i, dir, role, "127.0.0.1:0", false)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("faults: boot replica %d: %w", i, err)
		}
		g.Nodes = append(g.Nodes, node)
		g.addrs[i] = node.Node.Addr()
		g.gate.register(g.addrs[i], i)
	}
	g.wirePeers()
	return g, nil
}

// bootReplica builds one replica. restore=false boots a fresh
// controller (initial group bring-up); restore=true replays the
// journal dir through controller.Restore, exactly like a crashed
// innetd coming back.
func (g *ReplGroup) bootReplica(i int, dir string, role controller.Role, listen string, restore bool) (*ReplNode, error) {
	topo, err := topology.PaperFig3()
	if err != nil {
		return nil, err
	}
	store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
	if err != nil {
		return nil, err
	}
	var ctl *controller.Controller
	if restore {
		ctl, _, err = controller.Restore(topo, "", controller.Options{}, store.State(), nil, store)
	} else {
		ctl, err = controller.New(topo, "")
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	name := fmt.Sprintf("node%d", i)
	logf := g.opts.Logf
	rec := telemetry.NewRecorder(0)
	ctl.SetRecorder(rec)
	store.SetRecorder(rec)
	node, err := replication.NewNode(store, ctl, replication.Config{
		Role:            role,
		ListenAddr:      listen,
		AckTimeout:      g.opts.AckTimeout,
		FailoverAfter:   g.opts.FailoverAfter,
		ElectionTimeout: g.opts.ElectionTimeout,
		HeartbeatEvery:  g.opts.HeartbeatEvery,
		RedialEvery:     g.opts.RedialEvery,
		Dial:            g.gate.dialFrom(i),
		Rec:             rec,
		Logf: func(format string, args ...any) {
			if logf != nil {
				logf(name+": "+format, args...)
			}
		},
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	ctl.AttachJournal(node)
	if err := node.Start(); err != nil {
		node.Close()
		store.Close()
		return nil, err
	}
	return &ReplNode{Name: name, Dir: dir, Ctl: ctl, Store: store, Node: node, Rec: rec}, nil
}

// wirePeers gives every live replica every other replica's address.
// AddPeer is idempotent, so re-wiring after a restart is safe.
func (g *ReplGroup) wirePeers() {
	for i, n := range g.Nodes {
		if n == nil {
			continue
		}
		for j, addr := range g.addrs {
			if i != j {
				n.Node.AddPeer(addr)
			}
		}
	}
}

// Leader returns the index of the sole live unfenced leader, or -1
// (none, or a transient two-leader window an election is resolving).
func (g *ReplGroup) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := -1
	for i, n := range g.Nodes {
		if g.crashed[i] || n == nil {
			continue
		}
		if n.Node.Role() == controller.RoleLeader && !n.Node.Fenced() {
			if idx >= 0 {
				return -1
			}
			idx = i
		}
	}
	return idx
}

// Crash kills replica i outright: replication stack and store close,
// streams drop mid-flight, exactly like a process kill. The journal
// directory stays for post-mortems and Restart.
func (g *ReplGroup) Crash(i int) {
	g.mu.Lock()
	if g.crashed[i] {
		g.mu.Unlock()
		return
	}
	g.crashed[i] = true
	n := g.Nodes[i]
	g.mu.Unlock()
	n.Node.Close()
	n.Store.Close()
}

// Restart brings a crashed replica back as a follower on its original
// listen address, recovering controller state from its journal
// directory the way a restarted innetd would. The returned node
// replaces Nodes[i].
func (g *ReplGroup) Restart(i int) error {
	g.mu.Lock()
	if !g.crashed[i] {
		g.mu.Unlock()
		return fmt.Errorf("faults: replica %d is not crashed", i)
	}
	dir := g.Nodes[i].Dir
	addr := g.addrs[i]
	g.mu.Unlock()
	node, err := g.bootReplica(i, dir, controller.RoleStandby, addr, true)
	if err != nil {
		return fmt.Errorf("faults: restart replica %d: %w", i, err)
	}
	g.mu.Lock()
	g.Nodes[i] = node
	delete(g.crashed, i)
	g.mu.Unlock()
	g.wirePeers()
	return nil
}

// SetPartition splits the group into the given sets: traffic flows
// only within a set. Nodes not listed land in an implicit set of
// their own. Live connections crossing set boundaries are severed.
func (g *ReplGroup) SetPartition(sets [][]int) {
	g.gate.setPartition(sets)
}

// Isolate cuts replica i off from everyone else.
func (g *ReplGroup) Isolate(i int) {
	n := len(g.addrs)
	rest := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != i {
			rest = append(rest, j)
		}
	}
	g.SetPartition([][]int{{i}, rest})
}

// Heal reconnects the whole group; redial loops recover on their own.
func (g *ReplGroup) Heal() {
	g.gate.setPartition(nil)
}

// SetLag delays every replication write toward replica i by d (0
// lifts the lag). The stream stays up; the follower just falls
// behind.
func (g *ReplGroup) SetLag(i int, d time.Duration) {
	g.gate.setLag(i, d)
}

// Close tears the whole group down.
func (g *ReplGroup) Close() {
	g.mu.Lock()
	nodes := make([]*ReplNode, 0, len(g.Nodes))
	for i, n := range g.Nodes {
		if n != nil && !g.crashed[i] {
			nodes = append(nodes, n)
		}
	}
	g.mu.Unlock()
	for _, n := range nodes {
		n.Node.Close()
	}
	for _, n := range nodes {
		n.Store.Close()
	}
}

// meshGate is the fault-injection point for a replica group: every
// node's dials (frame streams and vote solicitations alike) resolve
// the target address to a node index, so partitions are expressed as
// node sets and lag as a per-target delay. Live connections remember
// their endpoints, letting a partition sever exactly the links that
// cross it.
type meshGate struct {
	mu     sync.Mutex
	addrTo map[string]int
	// group assigns each node a partition cell; nodes default to cell
	// 0 (fully connected).
	group map[int]int
	lag   map[int]time.Duration
	conns map[*meshConn]struct{}
}

func newMeshGate() *meshGate {
	return &meshGate{
		addrTo: make(map[string]int),
		group:  make(map[int]int),
		lag:    make(map[int]time.Duration),
		conns:  make(map[*meshConn]struct{}),
	}
}

func (m *meshGate) register(addr string, node int) {
	m.mu.Lock()
	m.addrTo[addr] = node
	m.mu.Unlock()
}

// reachableLocked reports whether from may talk to to under the
// current partition.
func (m *meshGate) reachableLocked(from, to int) bool {
	return m.group[from] == m.group[to]
}

func (m *meshGate) dialFrom(from int) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		m.mu.Lock()
		to, known := m.addrTo[addr]
		if !known {
			m.mu.Unlock()
			return nil, fmt.Errorf("faults: dial to unregistered address %s", addr)
		}
		if !m.reachableLocked(from, to) {
			m.mu.Unlock()
			return nil, fmt.Errorf("faults: partition separates node %d from node %d", from, to)
		}
		m.mu.Unlock()
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		mc := &meshConn{Conn: c, gate: m, from: from, to: to}
		m.mu.Lock()
		// A partition that raced the dial severs the conn immediately.
		if !m.reachableLocked(from, to) {
			m.mu.Unlock()
			c.Close()
			return nil, fmt.Errorf("faults: partition separates node %d from node %d", from, to)
		}
		m.conns[mc] = struct{}{}
		m.mu.Unlock()
		return mc, nil
	}
}

func (m *meshGate) setPartition(sets [][]int) {
	m.mu.Lock()
	m.group = make(map[int]int)
	for cell, set := range sets {
		for _, node := range set {
			// Cells start at 1 so unlisted nodes (implicit cell
			// -node-1) never share a cell with a listed one — or with
			// each other.
			m.group[node] = cell + 1
		}
	}
	if len(sets) > 0 {
		// Only with an explicit split do unlisted nodes land alone; an
		// empty split (Heal) leaves everyone in the common cell 0.
		for _, node := range m.addrTo {
			if _, listed := m.group[node]; !listed {
				m.group[node] = -node - 1
			}
		}
	}
	var cut []*meshConn
	for c := range m.conns {
		if !m.reachableLocked(c.from, c.to) {
			cut = append(cut, c)
			delete(m.conns, c)
		}
	}
	m.mu.Unlock()
	for _, c := range cut {
		c.Conn.Close()
	}
}

func (m *meshGate) setLag(node int, d time.Duration) {
	m.mu.Lock()
	if d > 0 {
		m.lag[node] = d
	} else {
		delete(m.lag, node)
	}
	m.mu.Unlock()
}

func (m *meshGate) lagFor(node int) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lag[node]
}

func (m *meshGate) drop(c *meshConn) {
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
}

// meshConn is a net.Conn the gate can sever (partition) and slow down
// (per-target lag).
type meshConn struct {
	net.Conn
	gate     *meshGate
	from, to int
}

func (c *meshConn) Write(b []byte) (int, error) {
	if d := c.gate.lagFor(c.to); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(b)
}

func (c *meshConn) Close() error {
	c.gate.drop(c)
	return c.Conn.Close()
}
