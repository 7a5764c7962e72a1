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

// ReplNode is one replica of a ReplPair: a controller, its journal
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
	// reg carries the controller's metrics; its counter callbacks read
	// the decision counters under the controller lock, which the
	// warm-replica checks need while the stream is applying records.
	reg *telemetry.Registry
}

// ReplPairOptions shapes a replicated pair. Zero values get
// chaos-suite-tight defaults.
type ReplPairOptions struct {
	// Dirs are the two journal directories (required).
	LeaderDir, StandbyDir string
	// AckTimeout is the leader's sync-replication ack bound; during a
	// partition this is how long a deploy blocks before the leader
	// fences itself (default 500ms).
	AckTimeout time.Duration
	// FailoverAfter is the standby's silence threshold before
	// auto-promotion; 0 disables the failure detector (manual
	// Promote).
	FailoverAfter time.Duration
	// HeartbeatEvery / RedialEvery pace the stream (defaults 20ms /
	// 10ms).
	HeartbeatEvery, RedialEvery time.Duration
	// Logf receives protocol events (nil = silent).
	Logf func(format string, args ...any)
}

// ReplPair is a leader/standby replicated controller pair over real
// loopback TCP, with a fault surface the chaos suite drives: crash
// the leader, partition the replication link (clients unaffected),
// or lag the stream. It is the replication analogue of Cluster.
type ReplPair struct {
	A, B *ReplNode // A boots as leader, B as standby
	gate *dialGate

	mu       sync.Mutex
	aCrashed bool
}

// NewReplPair boots the pair: B listens as a standby, A starts as the
// leader shipping to it; each holds the other as a peer so whichever
// side is leader after a failover can resynchronize the other. All
// replication dials go through a gate the fault methods control.
func NewReplPair(opts ReplPairOptions) (*ReplPair, error) {
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 500 * time.Millisecond
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 20 * time.Millisecond
	}
	if opts.RedialEvery <= 0 {
		opts.RedialEvery = 10 * time.Millisecond
	}
	p := &ReplPair{gate: newDialGate()}
	mk := func(name, dir string, role controller.Role) (*ReplNode, error) {
		topo, err := topology.PaperFig3()
		if err != nil {
			return nil, err
		}
		ctl, err := controller.New(topo, "")
		if err != nil {
			return nil, err
		}
		store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
		if err != nil {
			return nil, err
		}
		logf := opts.Logf
		rec := telemetry.NewRecorder(0)
		ctl.SetRecorder(rec)
		store.SetRecorder(rec)
		reg := telemetry.New()
		ctl.AttachTelemetry(reg, nil)
		node, err := replication.NewNode(store, ctl, replication.Config{
			Role:           role,
			ListenAddr:     "127.0.0.1:0",
			AckTimeout:     opts.AckTimeout,
			FailoverAfter:  opts.FailoverAfter,
			HeartbeatEvery: opts.HeartbeatEvery,
			RedialEvery:    opts.RedialEvery,
			Dial:           p.gate.dial,
			Rec:            rec,
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
		return &ReplNode{Name: name, Dir: dir, Ctl: ctl, Store: store, Node: node, Rec: rec, reg: reg}, nil
	}
	var err error
	if p.B, err = mk("standby", opts.StandbyDir, controller.RoleStandby); err != nil {
		return nil, fmt.Errorf("faults: boot standby: %w", err)
	}
	if p.A, err = mk("leader", opts.LeaderDir, controller.RoleLeader); err != nil {
		p.B.Node.Close()
		p.B.Store.Close()
		return nil, fmt.Errorf("faults: boot leader: %w", err)
	}
	// Cross-wire: the leader ships to the standby now; the standby
	// holds the leader as a dormant peer for after its promotion.
	p.A.Node.AddPeer(p.B.Node.Addr())
	p.B.Node.AddPeer(p.A.Node.Addr())
	return p, nil
}

// Leader returns the node currently acting as leader (nil during a
// failover window when neither side holds the role). A crashed node
// never counts, whatever role it died holding.
func (p *ReplPair) Leader() *ReplNode {
	p.mu.Lock()
	aCrashed := p.aCrashed
	p.mu.Unlock()
	for _, n := range []*ReplNode{p.A, p.B} {
		if n == p.A && aCrashed {
			continue
		}
		if n.Node.Role() == controller.RoleLeader && !n.Node.Fenced() {
			return n
		}
	}
	return nil
}

// CrashLeader kills node A's replication stack outright — streams
// drop mid-flight, exactly like a process kill. The store stays open
// so tests can post-mortem the crashed journal.
func (p *ReplPair) CrashLeader() {
	p.mu.Lock()
	p.aCrashed = true
	p.mu.Unlock()
	p.A.Node.Close()
}

// Partition cuts the replication link in both directions: every live
// gated connection drops and new dials fail until Heal. Client-facing
// controller calls on both nodes keep working (and on the leader,
// block on sync replication until it fences itself).
func (p *ReplPair) Partition() {
	p.gate.setPartitioned(true)
}

// Heal lifts the partition; redial loops reconnect on their own.
func (p *ReplPair) Heal() {
	p.gate.setPartitioned(false)
}

// SetLag delays every replication write by d (0 lifts the lag). The
// stream stays up; the standby just falls behind.
func (p *ReplPair) SetLag(d time.Duration) {
	p.gate.setDelay(d)
}

// Close tears both replicas down.
func (p *ReplPair) Close() {
	p.A.Node.Close()
	p.B.Node.Close()
	p.A.Store.Close()
	p.B.Store.Close()
}

// dialGate is the fault-injection point for replication streams: all
// peer dials go through it, so a partition can refuse new connections
// and sever live ones, and a lag window can delay writes.
type dialGate struct {
	mu          sync.Mutex
	partitioned bool
	delay       time.Duration
	conns       map[*gatedConn]struct{}
}

func newDialGate() *dialGate {
	return &dialGate{conns: make(map[*gatedConn]struct{})}
}

func (g *dialGate) dial(addr string) (net.Conn, error) {
	g.mu.Lock()
	if g.partitioned {
		g.mu.Unlock()
		return nil, fmt.Errorf("faults: replication link partitioned")
	}
	g.mu.Unlock()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	gc := &gatedConn{Conn: c, gate: g}
	g.mu.Lock()
	// A partition that raced the dial severs the conn immediately.
	if g.partitioned {
		g.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("faults: replication link partitioned")
	}
	g.conns[gc] = struct{}{}
	g.mu.Unlock()
	return gc, nil
}

func (g *dialGate) setPartitioned(on bool) {
	g.mu.Lock()
	g.partitioned = on
	var cut []*gatedConn
	if on {
		for c := range g.conns {
			cut = append(cut, c)
		}
		g.conns = make(map[*gatedConn]struct{})
	}
	g.mu.Unlock()
	for _, c := range cut {
		c.Conn.Close()
	}
}

func (g *dialGate) setDelay(d time.Duration) {
	g.mu.Lock()
	g.delay = d
	g.mu.Unlock()
}

func (g *dialGate) currentDelay() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.delay
}

func (g *dialGate) drop(c *gatedConn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
}

// gatedConn is a net.Conn the gate can sever (partition) and slow
// down (standby lag).
type gatedConn struct {
	net.Conn
	gate *dialGate
}

func (c *gatedConn) Write(b []byte) (int, error) {
	if d := c.gate.currentDelay(); d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(b)
}

func (c *gatedConn) Close() error {
	c.gate.drop(c)
	return c.Conn.Close()
}
