package replication

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

const testModule = `
in :: FromNetfront();
f :: IPFilter(allow udp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

func testRequest(i int) controller.Request {
	return controller.Request{
		Tenant:     fmt.Sprintf("tenant%d", i),
		ModuleName: fmt.Sprintf("repl%d", i),
		Config:     testModule,
		Trust:      security.ThirdParty,
	}
}

type replica struct {
	dir   string
	store *journal.Store
	ctl   *controller.Controller
	node  *Node
}

// newReplica boots one controller + store + replication node. The
// config's Role/ListenAddr/Peers come from the caller; timeouts are
// tightened for tests.
func newReplica(t *testing.T, cfg Config) *replica {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = 3 * time.Second
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 20 * time.Millisecond
	}
	if cfg.RedialEvery == 0 {
		cfg.RedialEvery = 10 * time.Millisecond
	}
	cfg.Logf = t.Logf
	node, err := NewNode(store, ctl, cfg)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	ctl.AttachJournal(node)
	if err := node.Start(); err != nil {
		store.Close()
		t.Fatal(err)
	}
	r := &replica{dir: dir, store: store, ctl: ctl, node: node}
	t.Cleanup(func() {
		node.Close()
		store.Close()
	})
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func canonical(t *testing.T, s *journal.Store) []byte {
	t.Helper()
	return s.State().Canonical()
}

func TestLeaderShipsToStandby(t *testing.T) {
	standby := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	leader := newReplica(t, Config{Role: controller.RoleLeader, Peers: []string{standby.node.Addr()}})

	var killID string
	for i := 0; i < 3; i++ {
		d, err := leader.ctl.Deploy(testRequest(i))
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		if i == 2 {
			killID = d.ID
		}
	}
	if err := leader.ctl.Kill(killID); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// Admissions and kills are synchronous: by the time Deploy/Kill
	// returned, the standby has the records durably — no polling.
	if got, want := standby.store.Seq(), leader.store.Seq(); got != want {
		t.Fatalf("standby seq %d != leader seq %d after sync appends", got, want)
	}
	if a, b := canonical(t, leader.store), canonical(t, standby.store); !bytes.Equal(a, b) {
		t.Fatalf("journal state diverged:\nleader:\n%s\nstandby:\n%s", a, b)
	}
	// The wire re-uses the journal frames verbatim, so the files are
	// byte-identical, CRCs included.
	lf, err := os.ReadFile(filepath.Join(leader.dir, journal.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := os.ReadFile(filepath.Join(standby.dir, journal.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lf, sf) {
		t.Fatalf("journal files differ: leader %d bytes, standby %d bytes", len(lf), len(sf))
	}
	// The standby's controller is warm: same deployments, live.
	if got := len(standby.ctl.Deployments()); got != 2 {
		t.Fatalf("standby holds %d deployments, want 2", got)
	}
	// And read-only: mutations are refused.
	if _, err := standby.ctl.Deploy(testRequest(9)); !errors.Is(err, controller.ErrNotLeader) {
		t.Fatalf("standby Deploy error = %v, want ErrNotLeader", err)
	}
}

func TestLateJoinCatchesUpIncrementally(t *testing.T) {
	standby := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	// Leader configured with the standby's address, but deploys before
	// the stream is necessarily caught up — the backlog path replays
	// records from disk on connect.
	leader := newReplica(t, Config{Role: controller.RoleLeader, Peers: []string{standby.node.Addr()}})
	for i := 0; i < 4; i++ {
		if _, err := leader.ctl.Deploy(testRequest(i)); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	waitFor(t, "standby catch-up", func() bool {
		return standby.store.Seq() == leader.store.Seq()
	})
	if a, b := canonical(t, leader.store), canonical(t, standby.store); !bytes.Equal(a, b) {
		t.Fatalf("states diverged after catch-up")
	}
	if standby.node.Info().LagRecords != 0 {
		t.Fatalf("standby reports lag %d after catch-up", standby.node.Info().LagRecords)
	}
}

func TestSnapshotResyncAfterCompaction(t *testing.T) {
	// The leader compacts its journal before the standby ever
	// connects: frame-by-frame catch-up is impossible (ErrCompacted)
	// and the leader must ship a snapshot.
	leaderDir := t.TempDir()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := journal.Open(leaderDir, journal.Options{Sync: journal.SyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachJournal(store)
	for i := 0; i < 3; i++ {
		if _, err := ctl.Deploy(testRequest(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.RecordsAfter(0); err != journal.ErrCompacted {
		t.Fatalf("RecordsAfter(0) after compact = %v, want ErrCompacted", err)
	}

	standby := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	node, err := NewNode(store, ctl, Config{
		Role:           controller.RoleLeader,
		Peers:          []string{standby.node.Addr()},
		HeartbeatEvery: 20 * time.Millisecond,
		RedialEvery:    10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.AttachJournal(node)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		node.Close()
		store.Close()
	})

	waitFor(t, "snapshot resync", func() bool {
		return standby.store.Seq() >= store.Seq() && standby.node.resyncs.Load() > 0
	})
	// Post-snapshot appends flow as frames again.
	if _, err := ctl.Deploy(testRequest(7)); err != nil {
		t.Fatal(err)
	}
	if standby.store.Seq() != store.Seq() {
		t.Fatalf("standby seq %d != leader seq %d after post-resync deploy", standby.store.Seq(), store.Seq())
	}
	if a, b := store.State().Canonical(), standby.store.State().Canonical(); !bytes.Equal(a, b) {
		t.Fatalf("states diverged after snapshot resync")
	}
	if got := len(standby.ctl.Deployments()); got != 4 {
		t.Fatalf("standby holds %d deployments, want 4", got)
	}
}

func TestPromotionFencesOldLeader(t *testing.T) {
	// Two nodes, each listening, each configured with the other as a
	// peer — the stacked pair innetd would run.
	standby := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	leader := newReplica(t, Config{
		Role:       controller.RoleLeader,
		ListenAddr: "127.0.0.1:0",
		Peers:      []string{standby.node.Addr()},
	})
	// Tell the standby where the old leader listens so that, once
	// promoted, it ships (and thereby fences) backwards.
	standby.node.mu.Lock()
	standby.node.peers = append(standby.node.peers, &peer{addr: leader.node.Addr()})
	standby.node.mu.Unlock()

	if _, err := leader.ctl.Deploy(testRequest(0)); err != nil {
		t.Fatal(err)
	}
	if err := standby.node.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if standby.node.Term() != 2 {
		t.Fatalf("promoted term = %d, want 2", standby.node.Term())
	}

	// The new leader's handshake deposes the old one.
	waitFor(t, "old leader fenced", func() bool { return leader.node.Fenced() })
	if err := leader.node.Append(journal.Record{Type: journal.EvReject, ID: "late", Reason: "x"}); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed leader Append = %v, want ErrFenced", err)
	}
	waitFor(t, "old leader demoted", func() bool { return leader.ctl.Role() == controller.RoleStandby })
	if _, err := leader.ctl.Deploy(testRequest(5)); !errors.Is(err, controller.ErrNotLeader) {
		t.Fatalf("deposed leader Deploy = %v, want ErrNotLeader", err)
	}

	// New leader serves writes; the deposed node follows it and
	// converges (snapshot resync rewrites any divergence).
	if _, err := standby.ctl.Deploy(testRequest(1)); err != nil {
		t.Fatalf("new leader deploy: %v", err)
	}
	waitFor(t, "deposed node convergence", func() bool {
		return leader.store.Seq() == standby.store.Seq() &&
			bytes.Equal(canonical(t, leader.store), canonical(t, standby.store))
	})
	// The deposed node learned its successor's URL for redirects.
	if got := leader.node.Leader(); got == "" {
		t.Log("deposed node has no successor URL (advertise unset in test config) — tolerated")
	}
	if got := len(leader.ctl.Deployments()); got != 2 {
		t.Fatalf("deposed node holds %d deployments, want 2", got)
	}
}

func TestEqualTermHelloRefused(t *testing.T) {
	a := newReplica(t, Config{Role: controller.RoleLeader, ListenAddr: "127.0.0.1:0"})
	// A second leader at the same term must not be accepted — wire a
	// fake leader hello directly.
	conn, err := (&Node{cfg: Config{}}).dial(a.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSONLine(conn, hello{Proto: Proto, Kind: helloKindStream, Term: a.node.Term(), Seq: 9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	m, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf[:m], []byte(`"ok":false`)) {
		t.Fatalf("equal-term hello accepted: %s", buf[:m])
	}
	if a.node.Fenced() {
		t.Fatal("leader fenced itself on an equal-term hello")
	}
}

func TestDeployIdempotentAcrossLeaders(t *testing.T) {
	standby := newReplica(t, Config{Role: controller.RoleStandby, ListenAddr: "127.0.0.1:0"})
	leader := newReplica(t, Config{Role: controller.RoleLeader, Peers: []string{standby.node.Addr()}})

	d1, err := leader.ctl.Deploy(testRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	// Crash the leader after the admission replicated; promote the
	// standby; the client's retry must be answered with the same
	// deployment, not a duplicate-module rejection.
	leader.node.Close()
	leader.store.Close()
	if err := standby.node.Promote(); err != nil {
		t.Fatal(err)
	}
	d2, reused, err := standby.ctl.DeployIdempotent(testRequest(0))
	if err != nil {
		t.Fatalf("retry after failover: %v", err)
	}
	if !reused {
		t.Fatal("retry was not recognized as a replay of the replicated admission")
	}
	if d2.ID != d1.ID || d2.Addr != d1.Addr || d2.Platform != d1.Platform {
		t.Fatalf("retry produced a different deployment: %s@%s vs %s@%s", d2.ID, d2.Platform, d1.ID, d1.Platform)
	}
	// A *different* request under the same module name still rejects.
	req := testRequest(0)
	req.Requirements = "" // identical so far; change the config
	req.Config = testModule + "\n// changed\n"
	if _, _, err := standby.ctl.DeployIdempotent(req); err == nil {
		t.Fatal("changed request under the same name was not rejected")
	}
}
