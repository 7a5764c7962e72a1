// Package replication implements a replicated controller group: the
// leader streams write-ahead journal frames (the exact bytes it wrote
// to its own journal file) to followers over a minimal TCP protocol,
// and each follower ingests them verbatim and folds them through the
// controller's catch-up apply, holding a warm, fully-admitted
// replica. Failover is fenced: leadership terms are journal records,
// a deposed leader's late appends are rejected (wedging it read-only)
// rather than forking history, and clients are redirected to the new
// leader through the API layer's role routing.
//
// Consistency model. Strict (write-ahead) records — admissions and
// kills — replicate synchronously. In a group of N ≥ 3 replicas,
// AppendSync commits once a majority of the group (the leader plus
// ⌊N/2⌋ followers) holds the frame, so any future majority — and
// therefore any electable leader — intersects the committing one and
// holds every acknowledged record. Failover is an election: a
// candidate solicits votes at a bumped term, a voter grants at most
// one vote per term (persisted across restarts) and only to a
// candidate whose journal is at least as up-to-date as its own, and
// the candidate promotes only with a majority including itself. A
// leader cut off from a majority fences within the ack timeout
// (blocked append or idle-quorum watchdog), so the minority side
// wedges read-only while the majority side elects and proceeds.
//
// With N ≤ 2 the legacy pair semantics apply unchanged: AppendSync
// waits for every peer that connected during the current term,
// failover is silence-triggered direct promotion (a standby that has
// never heard any leader refuses), and the operator accepts the
// pair's split-brain-on-partition fencing tradeoffs documented in
// DESIGN.md. A majority of 2 would make a promoted pair-standby
// unable to commit alone, so quorum rules only engage at N ≥ 3.
//
// Best-effort records ship asynchronously in both modes. Records a
// dying leader appended locally but never replicated are discarded
// when it rejoins as a follower (snapshot or suffix resync) — exactly
// the records no client ever saw acknowledged.
package replication

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/telemetry"
)

// Proto names the wire protocol version carried in the handshake.
const Proto = "innet-repl/2"

// ErrFenced is returned by appends on a deposed (or self-fenced)
// leader: the node is read-only until an operator restarts it as a
// standby of the new leader.
var ErrFenced = errors.New("replication: node is fenced (deposed leader), read-only")

// Config shapes a replication node.
type Config struct {
	// Role is the boot role: RoleLeader or RoleStandby.
	Role controller.Role
	// ListenAddr accepts replication streams (standbys listen; leaders
	// listen too, so a successor can fence them after a partition
	// heals). Empty = no listener.
	ListenAddr string
	// Peers are the replication addresses this node ships frames to
	// when (and only while) it is the leader.
	Peers []string
	// AdvertiseURL is this node's client-facing API base URL,
	// announced in the handshake so a deposed leader can redirect
	// clients to its successor.
	AdvertiseURL string
	// AckTimeout bounds AppendSync's wait for standby acknowledgement;
	// on expiry the leader fences itself (default 5s).
	AckTimeout time.Duration
	// HeartbeatEvery paces leader heartbeats (default 250ms).
	HeartbeatEvery time.Duration
	// FailoverAfter, when positive, arms automatic failover for a
	// follower that has not heard from its leader for this long: at
	// N ≤ 2 it promotes directly, at N ≥ 3 it starts an election.
	// Zero = manual Promote.
	FailoverAfter time.Duration
	// ElectionTimeout bounds one election round (vote solicitation)
	// and paces the jittered retry after a lost or split vote
	// (default 1s). Only meaningful at N ≥ 3.
	ElectionTimeout time.Duration
	// RedialEvery paces reconnection attempts to a dead peer
	// (default 100ms).
	RedialEvery time.Duration
	// Dial replaces net.Dial for the peer streams — the chaos suite
	// injects partitions and lag here.
	Dial func(addr string) (net.Conn, error)
	// Registry receives the replication telemetry families (nil = dark).
	Registry *telemetry.Registry
	// Rec, when set, receives flight-recorder events for fencings and
	// election wins.
	Rec *telemetry.Recorder
	// OnFence, when set, runs (asynchronously) after this node fences
	// itself — innetd dumps a postmortem from it.
	OnFence func(reason string)
	// Logf receives protocol events (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.RedialEvery <= 0 {
		c.RedialEvery = 100 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = time.Second
	}
}

// peer is one standby the leader ships to. All fields are guarded by
// Node.mu; the stream goroutine copies what it needs under the lock.
type peer struct {
	addr    string
	started bool
	// live marks an established stream; ch carries frames to its
	// writer goroutine, conn is closed to force a reconnect.
	live bool
	ch   chan []byte
	conn net.Conn
	// acked is the highest sequence number the standby acknowledged on
	// the current stream.
	acked uint64
	// termConnected is the leadership term in which this peer's stream
	// last went live. A peer that has never connected during the
	// current term is a catch-up candidate, not a voter: sync appends
	// do not wait for it (see minAckedLocked). This is the asymmetry
	// that lets a freshly promoted leader commit while its deposed
	// predecessor — whose peer WAS connected in its term and then
	// vanished — blocks and fences. At N ≥ 3 the same field scopes
	// majority counting to acks earned in the current term.
	termConnected uint64
}

// waiter is one AppendSync blocked until its seq is acknowledged by
// every peer (or the node fences).
type waiter struct {
	seq uint64
	ch  chan error
}

// Node replicates a journal store between controllers. It implements
// controller.Journal (plus the AppendSync extension), so attaching it
// in place of the bare *journal.Store makes every controller
// transition flow through replication.
type Node struct {
	store *journal.Store
	ctl   *controller.Controller
	cfg   Config

	mu     sync.Mutex
	role   controller.Role
	term   uint64
	fenced bool
	// leaderURL is the last advertised leader API URL (a standby
	// learns it from the handshake; a deposed leader from its
	// successor's fencing handshake).
	leaderURL string
	// leaderSeq / lastContact track the upstream leader for lag and
	// failure detection. everHeard records that at least one leader
	// handshake ever arrived: a standby that has never heard from any
	// leader has nothing to fail over FROM and must not auto-promote
	// over a boot leader it simply hasn't met yet.
	leaderSeq   uint64
	lastContact time.Time
	everHeard   bool
	peers       []*peer
	waiters     []*waiter
	// votedTerm / votedFor record the single vote this node may cast
	// per term, persisted to a side file in the journal directory so a
	// crash-restart cannot double-vote and elect two leaders for one
	// term. A candidate's self-vote lands here too — without bumping
	// n.term, so a failed candidacy cannot depose a healthy leader.
	votedTerm uint64
	votedFor  string
	// refusedAt is the highest vote-ledger term a voter reported when
	// refusing this node's candidacy. The next campaign starts above
	// it; like a self-vote, it never enters n.term.
	refusedAt uint64
	// quorumLostSince marks when a quorum-mode leader last lost
	// contact with a majority; the supervisor fences it once the gap
	// exceeds AckTimeout even if no append is in flight.
	quorumLostSince time.Time
	// ingests are live inbound streams (closed on promote so a zombie
	// leader cannot keep feeding a new leader).
	ingests []net.Conn
	closed  bool

	ln   net.Listener
	stop chan struct{}
	wg   sync.WaitGroup

	framesShipped    atomic.Uint64
	framesIngested   atomic.Uint64
	resyncs          atomic.Uint64
	fencings         atomic.Uint64
	electionsStarted atomic.Uint64
	electionsWon     atomic.Uint64
	electionsLost    atomic.Uint64
	votesGranted     atomic.Uint64
	// fencedRefusals counts appends rejected because the node is
	// fenced — the replication entry in the drop-attribution hub.
	fencedRefusals atomic.Uint64
	failoverHist   *telemetry.Histogram
	reg            *telemetry.Registry
}

// record emits a flight-recorder event when a recorder is attached.
// The node's replication listen address serves as the ref.
func (n *Node) record(typ, detail string) {
	if n.cfg.Rec != nil {
		n.cfg.Rec.Record(typ, "replication", detail, n.cfg.ListenAddr)
	}
}

// RegisterDrops wires the node's fenced-append refusals into the
// unified drop-attribution hub under site "replication". These are
// refused writes, not packets, but they share the operator question
// drops answer: where did my request go.
func (n *Node) RegisterDrops(d *telemetry.Drops) {
	if d == nil {
		return
	}
	d.Source("replication", "fenced", n.fencedRefusals.Load)
}

// NewNode wires a replication node around a store and its controller.
// A boot leader whose journal has never seen a term appends the
// founding EvTerm record immediately, so term 0 only ever means
// "never replicated".
func NewNode(store *journal.Store, ctl *controller.Controller, cfg Config) (*Node, error) {
	cfg.defaults()
	if cfg.Role != controller.RoleLeader && cfg.Role != controller.RoleStandby {
		return nil, fmt.Errorf("replication: role must be leader or standby, got %s", cfg.Role)
	}
	n := &Node{
		store: store,
		ctl:   ctl,
		cfg:   cfg,
		role:  cfg.Role,
		term:  store.State().Term,
		stop:  make(chan struct{}),
	}
	n.loadVote()
	if cfg.Role == controller.RoleLeader && n.term == 0 {
		n.term = 1
		if err := store.Append(journal.Record{Type: journal.EvTerm, Term: 1}); err != nil {
			return nil, fmt.Errorf("replication: founding term record: %w", err)
		}
	}
	// Peers start as voters for the current term: a boot leader's sync
	// appends wait for them from the first record (strict by default).
	// A later promotion bumps the term past termConnected, turning
	// unreachable peers into non-voting catch-up candidates until they
	// reconnect.
	for _, addr := range cfg.Peers {
		n.peers = append(n.peers, &peer{addr: addr, termConnected: n.term})
	}
	ctl.SetRole(cfg.Role)
	n.registerMetrics(cfg.Registry)
	return n, nil
}

// Start opens the listener, begins shipping (leaders) and arms the
// failure detector (standbys with FailoverAfter set).
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", n.cfg.ListenAddr)
		if err != nil {
			return fmt.Errorf("replication: listen: %w", err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop(ln)
	}
	n.lastContact = time.Now()
	if n.role == controller.RoleLeader {
		n.startPeersLocked()
	}
	// The supervisor always runs: it decides per-tick whether this is
	// a quorum group (N ≥ 3 — elections and the minority-leader
	// watchdog) or a legacy pair (direct silence-triggered promotion),
	// so peers registered after Start (harnesses bind ":0" first)
	// still flip the node into quorum behavior.
	n.wg.Add(1)
	go n.supervisor()
	return nil
}

// Addr returns the replication listener's address ("" if none) —
// tests listen on :0 and read the bound port here.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// AddPeer registers another replica's replication address. On an
// active leader the shipping stream starts immediately; on a standby
// the peer lies dormant until promotion. Harnesses use it when peer
// addresses are only known after both nodes have bound ":0"
// listeners. Sync appends wait on every registered peer, so adding a
// peer that is not actually listening will fence an active leader
// after one ack timeout.
func (n *Node) AddPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || addr == "" {
		return
	}
	for _, p := range n.peers {
		if p.addr == addr {
			return
		}
	}
	p := &peer{addr: addr, termConnected: n.term}
	n.peers = append(n.peers, p)
	n.registerPeerLag(p)
	if n.role == controller.RoleLeader && !n.fenced {
		n.startPeersLocked()
	}
}

// Append journals a best-effort record and ships it asynchronously.
func (n *Node) Append(r journal.Record) error { return n.append(r, false) }

// AppendSync journals a strict record and blocks until every peer has
// acknowledged it (or the ack timeout fences this node). Admissions
// and kills use it through the controller's write-ahead path.
func (n *Node) AppendSync(r journal.Record) error { return n.append(r, true) }

func (n *Node) append(r journal.Record, syncAck bool) error {
	n.mu.Lock()
	if n.fenced {
		n.fencedRefusals.Add(1)
		n.mu.Unlock()
		return ErrFenced
	}
	if n.role != controller.RoleLeader {
		n.mu.Unlock()
		return controller.ErrNotLeader
	}
	if err := n.store.Append(r); err != nil {
		n.mu.Unlock()
		return err
	}
	r.Seq = n.store.Seq()
	// Re-encoding the record with its assigned Seq reproduces the
	// exact frame bytes the store just wrote (deterministic JSON), so
	// the standby's journal file stays byte-identical to the leader's.
	frame, err := journal.EncodeRecord(r)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	n.shipLocked(frame)
	if !syncAck {
		n.mu.Unlock()
		return nil
	}
	if !n.quorumLocked() && !n.hasVotersLocked() {
		// Pair mode with no peer connected during this term: nothing
		// can acknowledge, and nothing that could become leader holds
		// this term — commit locally (the catch-up stream replays it
		// later). At N ≥ 3 this shortcut would let a minority leader
		// commit, so quorum mode always waits for majority acks.
		n.mu.Unlock()
		return nil
	}
	w := &waiter{seq: r.Seq, ch: make(chan error, 1)}
	n.waiters = append(n.waiters, w)
	n.mu.Unlock()

	select {
	case err := <-w.ch:
		return err
	case <-time.After(n.cfg.AckTimeout):
	}
	n.mu.Lock()
	select {
	case err := <-w.ch: // resolved while we were timing out
		n.mu.Unlock()
		return err
	default:
	}
	for i, other := range n.waiters {
		if other == w {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			break
		}
	}
	// Too few replicas acknowledged: fence rather than diverge. The
	// record stays in the local journal but was never acknowledged to
	// the client; the resync on rejoin discards it.
	n.fenceLocked("", fmt.Sprintf("no replication quorum for seq %d within %v", r.Seq, n.cfg.AckTimeout))
	n.mu.Unlock()
	return fmt.Errorf("%w: replication of seq %d timed out", ErrFenced, r.Seq)
}

// shipLocked hands a frame to every live peer stream. A peer whose
// buffer is full has its connection closed instead of blocking the
// append path — the reconnect catches it up from disk.
func (n *Node) shipLocked(frame []byte) {
	for _, p := range n.peers {
		if !p.live {
			continue
		}
		select {
		case p.ch <- frame:
		default:
			n.logf("replication: peer %s stream backlogged, dropping connection", p.addr)
			p.conn.Close()
			p.live = false
		}
	}
}

// clusterSizeLocked counts the replica group: this node plus every
// configured peer.
func (n *Node) clusterSizeLocked() int { return 1 + len(n.peers) }

// majorityLocked is the quorum size: ⌊N/2⌋+1 replicas.
func (n *Node) majorityLocked() int { return n.clusterSizeLocked()/2 + 1 }

// quorumLocked reports whether majority-quorum semantics govern this
// group. Pairs (and solo nodes) keep the legacy all-voter semantics:
// a majority of 2 is 2, which would leave a promoted pair-standby
// unable to commit alone — exactly the failover the pair exists for.
func (n *Node) quorumLocked() bool { return n.clusterSizeLocked() >= 3 }

// ackCountLocked counts the replicas known to hold the record at seq:
// this node (its journal wrote it) plus every current-term peer whose
// acknowledged watermark covers it. Acks earned under an older term
// do not count — only current-term streams prove the peer's journal
// is a prefix of ours.
func (n *Node) ackCountLocked(seq uint64) int {
	count := 1
	for _, p := range n.peers {
		if p.termConnected == n.term && p.acked >= seq {
			count++
		}
	}
	return count
}

// liveQuorumLocked reports whether this node plus its live
// current-term peers form a majority — the idle-leader health check
// the supervisor's watchdog enforces.
func (n *Node) liveQuorumLocked() bool {
	count := 1
	for _, p := range n.peers {
		if p.live && p.termConnected == n.term {
			count++
		}
	}
	return count >= n.majorityLocked()
}

// hasVotersLocked reports whether any peer has connected during the
// current term. Only such peers hold (or acknowledged) records of
// this term, so only they gate sync appends.
func (n *Node) hasVotersLocked() bool {
	for _, p := range n.peers {
		if p.termConnected == n.term {
			return true
		}
	}
	return false
}

// minAckedLocked is the lowest acknowledged seq across the peers that
// have connected during the current term — the watermark AppendSync
// waiters resolve against. Peers from older terms are catch-up
// candidates, not voters; with no voters at all everything resolves
// (^0).
func (n *Node) minAckedLocked() uint64 {
	min := ^uint64(0)
	for _, p := range n.peers {
		if p.termConnected == n.term && p.acked < min {
			min = p.acked
		}
	}
	return min
}

func (n *Node) maybeResolveLocked() {
	if len(n.waiters) == 0 {
		return
	}
	quorum := n.quorumLocked()
	min := uint64(0)
	if !quorum {
		min = n.minAckedLocked()
	}
	majority := n.majorityLocked()
	keep := n.waiters[:0]
	for _, w := range n.waiters {
		committed := false
		if quorum {
			committed = n.ackCountLocked(w.seq) >= majority
		} else {
			committed = w.seq <= min
		}
		if committed {
			w.ch <- nil
		} else {
			keep = append(keep, w)
		}
	}
	n.waiters = keep
}

// fenceLocked makes the node read-only: a higher term exists (or the
// standby is unreachable and is presumed promoting). Pending sync
// appends fail, peer streams close, and the controller drops to
// standby so the API layer starts redirecting.
func (n *Node) fenceLocked(successorURL, reason string) {
	if successorURL != "" {
		n.leaderURL = successorURL
	}
	if n.fenced {
		return
	}
	n.fenced = true
	n.fencings.Add(1)
	n.role = controller.RoleStandby
	for _, w := range n.waiters {
		w.ch <- ErrFenced
	}
	n.waiters = nil
	for _, p := range n.peers {
		if p.live {
			p.conn.Close()
			p.live = false
		}
	}
	n.logf("replication: fenced: %s", reason)
	n.record("fenced", reason)
	// Async: fencing can fire inside AppendSync while the controller's
	// own mutex is held; SetRole takes that mutex.
	go n.ctl.SetRole(controller.RoleStandby)
	if f := n.cfg.OnFence; f != nil {
		go f(reason)
	}
}

// Promote makes a follower the leader. In a pair this is direct: bump
// the term, journal the EvTerm fencing record, start shipping. At
// N ≥ 3 it runs an election and refuses to promote without a majority
// of votes — there is no unguarded promotion in quorum mode. The
// supervisor calls this automatically when FailoverAfter is set;
// tests and operators may call it directly.
func (n *Node) Promote() error {
	n.mu.Lock()
	if n.fenced {
		n.mu.Unlock()
		return ErrFenced
	}
	if n.role == controller.RoleLeader {
		n.mu.Unlock()
		return nil
	}
	if n.quorumLocked() {
		n.mu.Unlock()
		return n.runElection()
	}
	down := time.Since(n.lastContact)
	if st := n.store.State(); st.Term > n.term {
		n.term = st.Term
	}
	term := n.term + 1
	if err := n.promoteToTermLocked(term); err != nil {
		n.mu.Unlock()
		return fmt.Errorf("replication: promote: term record: %w", err)
	}
	n.mu.Unlock()
	n.finishPromotion(term, down)
	return nil
}

// promoteToTermLocked performs the leadership switch at exactly term:
// journal the EvTerm fencing record, cut inbound streams (a
// not-yet-dead old leader must not keep feeding us frames from the
// deposed term), start shipping to peers. Caller holds n.mu, has
// verified the node is an unfenced follower, and follows up with
// finishPromotion outside the lock.
func (n *Node) promoteToTermLocked(term uint64) error {
	rec := journal.Record{Type: journal.EvTerm, Term: term}
	if err := n.store.Append(rec); err != nil {
		return err
	}
	rec.Seq = n.store.Seq()
	n.term = term
	n.role = controller.RoleLeader
	n.leaderURL = ""
	for _, c := range n.ingests {
		c.Close()
	}
	n.ingests = nil
	n.quorumLostSince = time.Time{}
	n.startPeersLocked()
	if frame, err := journal.EncodeRecord(rec); err == nil {
		n.shipLocked(frame)
	}
	return nil
}

// finishPromotion runs the out-of-lock tail of a promotion: flip the
// controller to leader, record the failover latency, log.
func (n *Node) finishPromotion(term uint64, down time.Duration) {
	n.ctl.SetRole(controller.RoleLeader)
	if n.failoverHist != nil {
		n.failoverHist.Observe(down.Seconds())
	}
	n.record("election-won", fmt.Sprintf("term %d after %v leader silence", term, down))
	n.logf("replication: promoted to leader, term %d (leader silent for %v)", term, down)
}

func (n *Node) startPeersLocked() {
	for _, p := range n.peers {
		if p.started {
			continue
		}
		p.started = true
		n.wg.Add(1)
		go n.peerLoop(p)
	}
}

// supervisor is the node's periodic health loop. For a follower with
// FailoverAfter armed it triggers failover when the leader goes
// silent — direct promotion in a pair, an election (with jittered
// retry to break split votes) at N ≥ 3. For a quorum-mode leader it
// is the idle watchdog: a leader continuously cut off from a majority
// for AckTimeout fences even with no append in flight, so a minority
// partition wedges read-only within the ack timeout as promised to
// clients.
func (n *Node) supervisor() {
	defer n.wg.Done()
	every := n.cfg.AckTimeout / 4
	if n.cfg.FailoverAfter > 0 && n.cfg.FailoverAfter/4 < every {
		every = n.cfg.FailoverAfter / 4
	}
	if every < 5*time.Millisecond {
		every = 5 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	var nextElection time.Time
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		quorum := n.quorumLocked()
		// Leader-side quorum watchdog.
		if quorum && n.role == controller.RoleLeader && !n.fenced {
			if n.liveQuorumLocked() {
				n.quorumLostSince = time.Time{}
			} else if n.quorumLostSince.IsZero() {
				n.quorumLostSince = time.Now()
			} else if time.Since(n.quorumLostSince) > n.cfg.AckTimeout {
				n.fenceLocked("", fmt.Sprintf("lost contact with the majority for %v", n.cfg.AckTimeout))
			}
		}
		// Follower-side failover trigger.
		silent := n.cfg.FailoverAfter > 0 && !n.fenced &&
			n.role == controller.RoleStandby &&
			time.Since(n.lastContact) > n.cfg.FailoverAfter
		// In a pair, a standby that has never heard from any leader has
		// nothing to fail over FROM and must not promote over a boot
		// leader it simply hasn't met. In quorum mode the vote itself
		// guards this: a candidate cannot win without a majority, so
		// the special case is subsumed.
		if !quorum {
			silent = silent && (n.everHeard || n.term > 0)
		}
		n.mu.Unlock()
		if !silent {
			continue
		}
		if quorum && time.Now().Before(nextElection) {
			continue
		}
		if err := n.Promote(); err != nil {
			n.logf("replication: auto-failover: %v", err)
		}
		if quorum {
			// Back off a jittered interval before the next campaign so
			// two simultaneous candidates do not split votes forever.
			nextElection = time.Now().Add(n.cfg.ElectionTimeout/2 +
				time.Duration(rand.Int63n(int64(n.cfg.ElectionTimeout))))
		}
	}
}

// Info is the node's replication status, served as is by GET
// /v1/health.
type Info struct {
	Role string `json:"role"`
	Term uint64 `json:"term"`
	Seq  uint64 `json:"seq"`
	// Fenced marks a deposed leader (read-only until restarted).
	Fenced bool `json:"fenced,omitempty"`
	// LeaderURL is the advertised API URL of the current leader, when
	// this node is not it.
	LeaderURL string `json:"leader_url,omitempty"`
	// LagRecords is how many records this node is behind: the
	// leader's seq minus its own (standby), or its seq minus the
	// slowest peer's acknowledgement (leader).
	LagRecords uint64 `json:"lag_records"`
	// Peers counts configured replication peers.
	Peers int `json:"peers"`
	// ClusterSize and Majority describe the replica group: N replicas
	// (this node plus peers) and the ⌊N/2⌋+1 quorum strict appends
	// commit against at N ≥ 3.
	ClusterSize int `json:"cluster_size"`
	Majority    int `json:"majority"`
	// PeerDetail reports each configured peer's stream state — the
	// per-peer view an operator needs to debug a quorum stall.
	PeerDetail []PeerStatus `json:"peer_detail,omitempty"`
}

// PeerStatus is one peer's replication state as seen from this node.
type PeerStatus struct {
	Addr string `json:"addr"`
	// AckedSeq is the highest journal seq the peer acknowledged on its
	// current stream; Lag is this node's seq minus that.
	AckedSeq uint64 `json:"acked_seq"`
	Lag      uint64 `json:"lag"`
	// Connected marks a live stream; TermConnected is the leadership
	// term the stream last went live in (a peer whose TermConnected
	// trails the node's term is a catch-up candidate, not a voter).
	Connected     bool   `json:"connected"`
	TermConnected uint64 `json:"term_connected,omitempty"`
}

// Info snapshots the node's replication status.
func (n *Node) Info() Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.infoLocked()
}

func (n *Node) infoLocked() Info {
	info := Info{
		Role:        n.role.String(),
		Term:        n.term,
		Seq:         n.store.Seq(),
		Fenced:      n.fenced,
		LeaderURL:   n.leaderURL,
		Peers:       len(n.peers),
		ClusterSize: n.clusterSizeLocked(),
		Majority:    n.majorityLocked(),
	}
	info.LagRecords = n.lagLocked(info.Seq)
	for _, p := range n.peers {
		ps := PeerStatus{
			Addr:          p.addr,
			AckedSeq:      p.acked,
			Connected:     p.live,
			TermConnected: p.termConnected,
		}
		if p.acked < info.Seq {
			ps.Lag = info.Seq - p.acked
		}
		info.PeerDetail = append(info.PeerDetail, ps)
	}
	return info
}

func (n *Node) lagLocked(seq uint64) uint64 {
	if n.role == controller.RoleLeader {
		if len(n.peers) == 0 {
			return 0
		}
		if min := n.minAckedLocked(); min < seq {
			return seq - min
		}
		return 0
	}
	if n.leaderSeq > seq {
		return n.leaderSeq - seq
	}
	return 0
}

// Leader returns the advertised API URL of the current leader ("" when
// this node is the leader or no leader is known).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderURL
}

// Role returns the node's current role (fenced nodes report standby).
func (n *Node) Role() controller.Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Fenced reports whether this node has been deposed.
func (n *Node) Fenced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fenced
}

// Term returns the node's current leadership term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Close stops all streams, the listener and the failure detector.
// Pending sync appends fail. The store is not closed.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	if n.ln != nil {
		n.ln.Close()
	}
	for _, p := range n.peers {
		if p.live {
			p.conn.Close()
			p.live = false
		}
	}
	for _, c := range n.ingests {
		c.Close()
	}
	n.ingests = nil
	for _, w := range n.waiters {
		w.ch <- fmt.Errorf("replication: node closed")
	}
	n.waiters = nil
	n.mu.Unlock()
	n.wg.Wait()
	return nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) registerMetrics(r *telemetry.Registry) {
	n.failoverHist = r.Histogram("innet_replication_failover_seconds",
		"Standby promotion latency: time from last leader contact to leadership.",
		telemetry.DefBuckets)
	if r == nil {
		return
	}
	n.reg = r
	for _, p := range n.peers {
		n.registerPeerLag(p)
	}
	r.GaugeFunc("innet_replication_term",
		"Current leadership term (0 = never replicated).",
		func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return float64(n.term)
		})
	r.GaugeFunc("innet_replication_lag_records",
		"Journal records this node is behind (leader: slowest peer; standby: vs leader heartbeat).",
		func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return float64(n.lagLocked(n.store.Seq()))
		})
	r.GaugeFunc("innet_replication_fenced",
		"1 when this node has been deposed and is read-only.",
		func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			if n.fenced {
				return 1
			}
			return 0
		})
	r.CounterFunc("innet_replication_frames_shipped_total",
		"Journal frames shipped to peers.",
		func() float64 { return float64(n.framesShipped.Load()) })
	r.CounterFunc("innet_replication_frames_ingested_total",
		"Journal frames ingested from the leader.",
		func() float64 { return float64(n.framesIngested.Load()) })
	r.CounterFunc("innet_replication_resyncs_total",
		"Full snapshot resyncs (incremental catch-up impossible).",
		func() float64 { return float64(n.resyncs.Load()) })
	r.CounterFunc("innet_replication_fencings_total",
		"Times this node fenced itself (deposed or standby unreachable).",
		func() float64 { return float64(n.fencings.Load()) })
	r.CounterFunc("innet_replication_elections_started_total",
		"Election campaigns this node started as a candidate.",
		func() float64 { return float64(n.electionsStarted.Load()) })
	r.CounterFunc("innet_replication_elections_won_total",
		"Election campaigns this node won (promoted with a majority).",
		func() float64 { return float64(n.electionsWon.Load()) })
	r.CounterFunc("innet_replication_elections_lost_total",
		"Election campaigns this node lost or timed out.",
		func() float64 { return float64(n.electionsLost.Load()) })
	r.CounterFunc("innet_replication_votes_granted_total",
		"Votes this node granted to candidates (excluding self-votes).",
		func() float64 { return float64(n.votesGranted.Load()) })
}

// registerPeerLag exports one peer's acknowledgement lag as
// innet_repl_peer_lag{peer=addr}: this node's journal seq minus the
// peer's acked watermark. AddPeer dedups addresses, so each peer
// registers exactly once.
func (n *Node) registerPeerLag(p *peer) {
	if n.reg == nil {
		return
	}
	n.reg.GaugeFunc("innet_repl_peer_lag",
		"Journal records a replication peer trails this node by.",
		func() float64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			if seq := n.store.Seq(); p.acked < seq {
				return float64(seq - p.acked)
			}
			return 0
		}, "peer", p.addr)
}

// marshalState renders a snapshot for the resync message.
func marshalState(st *journal.State) ([]byte, error) {
	return json.Marshal(st)
}
