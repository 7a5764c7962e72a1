package replication

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/topology"
)

// newGroup boots n replicas: replicas[0] the leader, the rest
// standbys, every node configured with every other as a peer (added
// after all listeners are bound). Timeouts are tightened for tests.
func newGroup(t *testing.T, n int, tweak func(i int, cfg *Config)) []*replica {
	t.Helper()
	group := make([]*replica, n)
	for i := range group {
		cfg := Config{
			Role:       controller.RoleStandby,
			ListenAddr: "127.0.0.1:0",
			AckTimeout: time.Second,
		}
		if i == 0 {
			cfg.Role = controller.RoleLeader
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		group[i] = newReplica(t, cfg)
	}
	for i, r := range group {
		for j, other := range group {
			if i != j {
				r.node.AddPeer(other.node.Addr())
			}
		}
	}
	return group
}

// leaderOf returns the index of the sole unfenced leader, or -1.
func leaderOf(group []*replica) int {
	idx := -1
	for i, r := range group {
		if r.node.Role() == controller.RoleLeader && !r.node.Fenced() {
			if idx >= 0 {
				return -1 // two leaders: not settled
			}
			idx = i
		}
	}
	return idx
}

func TestQuorumCommitWithOneFollowerDown(t *testing.T) {
	// 3-node group where one follower is dead from the start: strict
	// appends must still commit on leader + one follower — the
	// headline availability win over the pair's all-voter rule.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	follower := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	leader := newReplica(t, Config{
		Role:       controller.RoleLeader,
		ListenAddr: "127.0.0.1:0",
		AckTimeout: 2 * time.Second,
		Peers:      []string{follower.node.Addr(), deadAddr},
	})

	start := time.Now()
	if _, err := leader.ctl.Deploy(testRequest(0)); err != nil {
		t.Fatalf("deploy with one follower down: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("majority commit took %v — waited for the dead follower?", elapsed)
	}
	if got, want := follower.store.Seq(), leader.store.Seq(); got != want {
		t.Fatalf("live follower seq %d != leader seq %d", got, want)
	}
	info := leader.node.Info()
	if info.ClusterSize != 3 || info.Majority != 2 {
		t.Fatalf("info cluster/majority = %d/%d, want 3/2", info.ClusterSize, info.Majority)
	}
	if len(info.PeerDetail) != 2 {
		t.Fatalf("peer detail has %d entries, want 2", len(info.PeerDetail))
	}
	var connected, down int
	for _, ps := range info.PeerDetail {
		if ps.Connected {
			connected++
			if ps.AckedSeq != info.Seq || ps.Lag != 0 {
				t.Fatalf("connected peer %s: acked %d lag %d, want acked %d lag 0", ps.Addr, ps.AckedSeq, ps.Lag, info.Seq)
			}
		} else {
			down++
			if ps.Lag == 0 {
				t.Fatalf("dead peer %s reports zero lag", ps.Addr)
			}
		}
	}
	if connected != 1 || down != 1 {
		t.Fatalf("peer detail connected/down = %d/%d, want 1/1", connected, down)
	}
}

func TestQuorumLeaderFencesWithoutMajorityOnAppend(t *testing.T) {
	// Both followers dead: a strict append cannot reach a majority and
	// must fence the leader within the ack timeout.
	deadAddrs := make([]string, 2)
	for i := range deadAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddrs[i] = ln.Addr().String()
		ln.Close()
	}
	leader := newReplica(t, Config{
		Role:       controller.RoleLeader,
		ListenAddr: "127.0.0.1:0",
		AckTimeout: 300 * time.Millisecond,
		Peers:      deadAddrs,
	})
	if _, err := leader.ctl.Deploy(testRequest(0)); !errors.Is(err, ErrFenced) {
		t.Fatalf("minority leader Deploy = %v, want ErrFenced", err)
	}
	if !leader.node.Fenced() {
		t.Fatal("leader not fenced after quorumless append")
	}
}

func TestQuorumIdleLeaderWatchdogFences(t *testing.T) {
	// No appends at all: the supervisor's watchdog must still fence a
	// leader that cannot see a majority, inside the ack timeout — an
	// idle minority leader must not keep serving (stale) reads as a
	// leader indefinitely.
	deadAddrs := make([]string, 2)
	for i := range deadAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddrs[i] = ln.Addr().String()
		ln.Close()
	}
	leader := newReplica(t, Config{
		Role:       controller.RoleLeader,
		ListenAddr: "127.0.0.1:0",
		AckTimeout: 200 * time.Millisecond,
		Peers:      deadAddrs,
	})
	waitFor(t, "idle minority leader to fence", func() bool { return leader.node.Fenced() })
}

func TestQuorumElectionAfterLeaderCrash(t *testing.T) {
	// Manual promotion on a 3-node group runs an election: the
	// candidate needs the surviving follower's vote, wins term 2, and
	// the survivor catches up incrementally (no snapshot resync) to a
	// byte-identical journal file.
	group := newGroup(t, 3, nil)
	for i := 0; i < 3; i++ {
		if _, err := group[0].ctl.Deploy(testRequest(i)); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	// A majority commit needs only one follower's ack, so the
	// candidate may still trail the leader when Deploy returns; the
	// voter would then rightly refuse it as behind. Crash the leader
	// only once both followers hold its whole journal.
	waitFor(t, "followers caught up", func() bool {
		return group[1].store.Seq() == group[0].store.Seq() && group[2].store.Seq() == group[0].store.Seq()
	})
	group[0].node.Close()
	group[0].store.Close()

	if err := group[1].node.Promote(); err != nil {
		t.Fatalf("election: %v", err)
	}
	if got := group[1].node.Term(); got != 2 {
		t.Fatalf("elected term = %d, want 2", got)
	}
	if _, err := group[1].ctl.Deploy(testRequest(7)); err != nil {
		t.Fatalf("deploy on elected leader: %v", err)
	}
	waitFor(t, "survivor convergence", func() bool {
		return group[2].store.Seq() == group[1].store.Seq()
	})
	if group[2].node.resyncs.Load() != 0 {
		t.Fatalf("up-to-date survivor took %d snapshot resyncs, want incremental catch-up", group[2].node.resyncs.Load())
	}
	a, err := os.ReadFile(filepath.Join(group[1].dir, journal.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(group[2].dir, journal.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("journal files differ after failover: %d vs %d bytes", len(a), len(b))
	}
}

func TestQuorumElectionRequiresMajority(t *testing.T) {
	// A candidate that can reach no other replica must refuse to
	// promote — the "never-heard standby refuses" rule, subsumed by
	// the vote.
	deadAddrs := make([]string, 2)
	for i := range deadAddrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddrs[i] = ln.Addr().String()
		ln.Close()
	}
	lone := newReplica(t, Config{
		Role:            controller.RoleStandby,
		ListenAddr:      "127.0.0.1:0",
		ElectionTimeout: 200 * time.Millisecond,
		Peers:           deadAddrs,
	})
	err := lone.node.Promote()
	if !errors.Is(err, errElectionLost) {
		t.Fatalf("isolated candidate Promote = %v, want election lost", err)
	}
	if lone.node.Role() == controller.RoleLeader {
		t.Fatal("isolated candidate promoted without a majority")
	}
}

func TestQuorumColdGroupElectsExactlyOneLeader(t *testing.T) {
	// Three standbys, none of which has ever heard a leader, with
	// automatic failover armed: the group must elect exactly one
	// leader (term ≥ 2 — founding term 1 is reserved for configured
	// boot leaders) and serve writes. The pair-era everHeard guard
	// would have deadlocked this group forever.
	group := newGroup(t, 3, func(i int, cfg *Config) {
		cfg.Role = controller.RoleStandby
		cfg.FailoverAfter = 100 * time.Millisecond
		cfg.ElectionTimeout = 150 * time.Millisecond
		cfg.HeartbeatEvery = 20 * time.Millisecond
	})
	waitFor(t, "a settled leader", func() bool {
		idx := leaderOf(group)
		if idx < 0 {
			return false
		}
		// Settled: both followers on the leader's term and seq.
		info := group[idx].node.Info()
		for i, r := range group {
			if i != idx && (r.node.Term() != info.Term || r.store.Seq() != info.Seq) {
				return false
			}
		}
		return true
	})
	idx := leaderOf(group)
	if got := group[idx].node.Term(); got < 2 {
		t.Fatalf("elected term = %d, want ≥ 2", got)
	}
	if _, err := group[idx].ctl.Deploy(testRequest(0)); err != nil {
		t.Fatalf("deploy on elected leader: %v", err)
	}
	waitFor(t, "replication to both followers", func() bool {
		for i, r := range group {
			if i != idx && r.store.Seq() != group[idx].store.Seq() {
				return false
			}
		}
		return true
	})
}

// sendRaw writes one hello and reads one reply line.
func sendRaw(t *testing.T, addr string, h hello) helloReply {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	if err := writeJSONLine(conn, h); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var rep helloReply
	if err := json.Unmarshal(line, &rep); err != nil {
		t.Fatalf("bad reply %q: %v", line, err)
	}
	return rep
}

func TestVoteDeniedToStaleLog(t *testing.T) {
	// A voter must refuse a candidate whose journal is behind its own:
	// electing it could lose majority-committed records.
	follower := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	leader := newReplica(t, Config{Role: controller.RoleLeader, Peers: []string{follower.node.Addr()}})
	for i := 0; i < 3; i++ {
		if _, err := leader.ctl.Deploy(testRequest(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := follower.store.State()

	rep := sendRaw(t, follower.node.Addr(), hello{
		Proto: Proto, Kind: helloKindVote, Term: st.Term + 1,
		Seq: st.Seq - 1, LastTerm: st.Term, Candidate: "stale",
	})
	if rep.Granted {
		t.Fatal("vote granted to a candidate one record behind")
	}
	rep = sendRaw(t, follower.node.Addr(), hello{
		Proto: Proto, Kind: helloKindVote, Term: st.Term + 1,
		Seq: st.Seq, LastTerm: st.Term - 1, Candidate: "old-term",
	})
	if rep.Granted {
		t.Fatal("vote granted to a candidate with an older tail term")
	}
	// An up-to-date candidate gets the vote…
	rep = sendRaw(t, follower.node.Addr(), hello{
		Proto: Proto, Kind: helloKindVote, Term: st.Term + 1,
		Seq: st.Seq, LastTerm: st.Term, Candidate: "fresh",
	})
	if !rep.Granted {
		t.Fatalf("vote denied to an up-to-date candidate: %s", rep.Reason)
	}
	// …and holds it: a rival in the same term is refused, while the
	// original re-solicitation is re-granted idempotently.
	rep = sendRaw(t, follower.node.Addr(), hello{
		Proto: Proto, Kind: helloKindVote, Term: st.Term + 1,
		Seq: st.Seq + 9, LastTerm: st.Term, Candidate: "rival",
	})
	if rep.Granted {
		t.Fatal("double vote in one term")
	}
	rep = sendRaw(t, follower.node.Addr(), hello{
		Proto: Proto, Kind: helloKindVote, Term: st.Term + 1,
		Seq: st.Seq, LastTerm: st.Term, Candidate: "fresh",
	})
	if !rep.Granted {
		t.Fatalf("idempotent re-grant refused: %s", rep.Reason)
	}
}

func TestVoteSurvivesRestart(t *testing.T) {
	// The vote ledger persists: after a crash-restart in the same
	// journal directory, the node still refuses a rival in the term it
	// voted in before the crash.
	dir := t.TempDir()
	boot := func() (*Node, func()) {
		topo, err := topology.PaperFig3()
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := controller.New(topo, "")
		if err != nil {
			t.Fatal(err)
		}
		store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(store, ctl, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0", Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		return node, func() { node.Close(); store.Close() }
	}
	node, shutdown := boot()
	rep := sendRaw(t, node.Addr(), hello{Proto: Proto, Kind: helloKindVote, Term: 5, Candidate: "first"})
	if !rep.Granted {
		t.Fatalf("initial vote denied: %s", rep.Reason)
	}
	shutdown()

	node, shutdown = boot()
	defer shutdown()
	rep = sendRaw(t, node.Addr(), hello{Proto: Proto, Kind: helloKindVote, Term: 5, Candidate: "second"})
	if rep.Granted {
		t.Fatal("restart forgot the persisted vote: double vote in term 5")
	}
	rep = sendRaw(t, node.Addr(), hello{Proto: Proto, Kind: helloKindVote, Term: 5, Candidate: "first"})
	if !rep.Granted {
		t.Fatalf("persisted vote not re-granted to its candidate: %s", rep.Reason)
	}
}

func TestVoteRefusalCarriesVotedTerm(t *testing.T) {
	// A voter whose own lost campaigns pushed its vote ledger past its
	// term refuses every lower-term candidate. Its refusal must say how
	// far the candidate has to jump, so the candidate's next campaign
	// clears the ledger instead of losing one term at a time.
	deadAddrs := []string{"127.0.0.1:1", "127.0.0.1:2"}
	voter := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0", Peers: deadAddrs})
	for i := 0; i < 3; i++ {
		if err := voter.node.Promote(); !errors.Is(err, errElectionLost) {
			t.Fatalf("voter campaign %d = %v, want errElectionLost", i, err)
		}
	}
	voter.node.mu.Lock()
	votedTerm := voter.node.votedTerm
	voter.node.mu.Unlock()
	if votedTerm != 4 || voter.node.Term() != 0 {
		t.Fatalf("voter votedTerm %d term %d, want 4 and 0", votedTerm, voter.node.Term())
	}

	cand := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0",
		Peers: []string{voter.node.Addr(), deadAddrs[0]}})
	if err := cand.node.Promote(); !errors.Is(err, errElectionLost) {
		t.Fatalf("first campaign = %v, want errElectionLost", err)
	}
	// The refusal's voted term floors the next campaign, but it is not
	// adopted as the candidate's term: a healed minority candidate must
	// still rejoin a healthy leader's term rather than depose it.
	if got := cand.node.Term(); got != 0 {
		t.Fatalf("candidate adopted term %d from a refusal", got)
	}
	if err := cand.node.Promote(); err != nil {
		t.Fatalf("second campaign: %v", err)
	}
	if cand.node.Role() != controller.RoleLeader || cand.node.Term() != 5 {
		t.Fatalf("candidate role %v term %d, want leader at term 5", cand.node.Role(), cand.node.Term())
	}
}

func TestFencedNodeRefusesElection(t *testing.T) {
	deadAddrs := []string{"127.0.0.1:1", "127.0.0.1:2"}
	leader := newReplica(t, Config{
		Role:       controller.RoleLeader,
		ListenAddr: "127.0.0.1:0",
		AckTimeout: 150 * time.Millisecond,
		Peers:      deadAddrs,
	})
	waitFor(t, "watchdog fence", func() bool { return leader.node.Fenced() })
	if err := leader.node.Promote(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced Promote = %v, want ErrFenced", err)
	}
}

// logLines collects a node's Logf output.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) has(t *testing.T, want string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, want) {
			return
		}
	}
	t.Errorf("no log line contains %q; got:\n%s", want, strings.Join(l.lines, "\n"))
}

// A voter logs every refusal with the candidate, the term and the
// reason, and a losing candidate logs the reasons it got back: an
// election that never ends must say why.
func TestVoteRefusalsAreLogged(t *testing.T) {
	boot := func(cfg Config, records int) (*Node, *logLines) {
		topo, err := topology.PaperFig3()
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := controller.New(topo, "")
		if err != nil {
			t.Fatal(err)
		}
		store, err := journal.Open(t.TempDir(), journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		for i := 0; i < records; i++ {
			if err := store.Append(journal.Record{Type: journal.EvReject}); err != nil {
				t.Fatal(err)
			}
		}
		logs := &logLines{}
		cfg.Role, cfg.Logf = controller.RoleStandby, logs.logf
		node, err := NewNode(store, ctl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node, logs
	}
	voter, voterLog := boot(Config{ListenAddr: "127.0.0.1:0"}, 2)
	if err := voter.Start(); err != nil {
		t.Fatal(err)
	}
	if rep := sendRaw(t, voter.Addr(), hello{Proto: Proto, Kind: helloKindVote, Term: 5, Seq: 2, Candidate: "first"}); !rep.Granted {
		t.Fatalf("up-to-date candidate refused: %s", rep.Reason)
	}
	sendRaw(t, voter.Addr(), hello{Proto: Proto, Kind: helloKindVote, Term: 3, Seq: 2, Candidate: "stale"})
	sendRaw(t, voter.Addr(), hello{Proto: Proto, Kind: helloKindVote, Term: 6, Candidate: "behind"})
	voterLog.has(t, "refused vote to stale for term 3: stale term 3 (current 5)")
	voterLog.has(t, "refused vote to behind for term 6: candidate log (term 0, seq 0) behind ours (term 0, seq 2)")

	cand, candLog := boot(Config{AdvertiseURL: "http://cand", Peers: []string{voter.Addr(), "127.0.0.1:1"}}, 0)
	if err := cand.Promote(); !errors.Is(err, errElectionLost) {
		t.Fatalf("campaign = %v, want errElectionLost", err)
	}
	candLog.has(t, "election for term 2 lost (1/2 votes; refused: stale term 2 (current 5))")
}
