package faults

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/security"
)

const replModule = `
in :: FromNetfront();
f :: IPFilter(allow udp);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

func replRequest(i int) controller.Request {
	return controller.Request{
		Tenant:     fmt.Sprintf("tenant%d", i),
		ModuleName: fmt.Sprintf("chaos%d", i),
		Config:     replModule,
		Trust:      security.ThirdParty,
	}
}

func waitRepl(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// requireWarmReplica asserts that what a replica's controller serves
// from — its deployments and decision counters — equals its journal's
// folded state. A standby applies each record after ingesting it and
// outside the node lock, so this polls to a deadline.
func requireWarmReplica(t *testing.T, n *ReplNode) {
	t.Helper()
	var ctl, want string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if ctl, want = renderController(t, n), renderState(n.Store.State()); ctl == want {
			return
		}
	}
	t.Fatalf("%s: controller state diverged from its journal:\n--- journal ---\n%s--- controller ---\n%s", n.Name, want, ctl)
}

// renderController renders a replica's controller in renderState's
// format: its deployment side-table, and the decision counters of its
// own folded state.
func renderController(t *testing.T, n *ReplNode) string {
	t.Helper()
	var b strings.Builder
	for _, d := range n.Ctl.Deployments() {
		fmt.Fprintf(&b, "%s %s/%s %s addr=%d sandboxed=%t %s %q\n",
			d.ID, d.Tenant, d.ModuleName, d.Platform, d.Addr, d.Sandboxed, d.Status(), d.Config)
	}
	st := n.Ctl.State()
	fmt.Fprintf(&b, "placed=%d rejections=%d migrations=%d failed=%d\n",
		st.Placed, st.Rejections, st.Migrations, st.FailedMigrations)
	return b.String()
}

func renderState(st *journal.State) string {
	var b strings.Builder
	for _, id := range st.IDs() {
		d := st.Deployments[id]
		fmt.Fprintf(&b, "%s %s/%s %s addr=%d sandboxed=%t %s %q\n",
			d.ID, d.Tenant, d.ModuleName, d.Platform, d.Addr, d.Sandboxed, d.Status, d.Config)
	}
	fmt.Fprintf(&b, "placed=%d rejections=%d migrations=%d failed=%d\n",
		st.Placed, st.Rejections, st.Migrations, st.FailedMigrations)
	return b.String()
}

// baselineCanonical runs the workload on an unfaulted pair (a
// two-replica group) and returns the canonical end state every chaos
// run must converge to.
// The workload is deploys 0..n-1 with deploy killIdx killed at the
// end (killIdx < 0 skips the kill).
func baselineCanonical(t *testing.T, n, killIdx int) []byte {
	t.Helper()
	g := newReplGroup(t, 2, ReplGroupOptions{})
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		d, err := g.Nodes[0].Ctl.Deploy(replRequest(i))
		if err != nil {
			t.Fatalf("baseline deploy %d: %v", i, err)
		}
		ids[i] = d.ID
	}
	if killIdx >= 0 {
		if err := g.Nodes[0].Ctl.Kill(ids[killIdx]); err != nil {
			t.Fatalf("baseline kill: %v", err)
		}
	}
	return g.Nodes[0].Store.State().Canonical()
}

// The seeded plan generator covers the replication kinds, keeps its
// determinism, and Schedule routes them only to ReplTarget
// implementations.
func TestReplPlanGenerationAndDispatch(t *testing.T) {
	cfg := Config{
		Horizon:            1_000_000,
		LeaderCrash:        true,
		Partitions:         2,
		PartitionDuration:  50_000,
		StandbyLags:        1,
		StandbyLagDuration: 30_000,
	}
	if Generate(7, cfg).Signature() != Generate(7, cfg).Signature() {
		t.Fatal("same seed produced different replication plans")
	}
	if Generate(7, cfg).Signature() == Generate(8, cfg).Signature() {
		t.Fatal("different seeds produced identical plans")
	}
	counts := map[Kind]int{}
	for _, f := range Generate(7, cfg).Faults {
		counts[f.Kind]++
		if f.At <= 0 || f.At > cfg.Horizon {
			t.Errorf("fault %s at %d outside horizon", f.Kind, f.At)
		}
	}
	if counts[KindLeaderCrash] != 1 || counts[KindPartition] != 2 || counts[KindStandbyLag] != 1 {
		t.Fatalf("kind counts = %v", counts)
	}

	// Dispatch: a ReplTarget sees the faults, a plain Target is skipped
	// (not crashed).
	rec := &recordingReplTarget{}
	sim := netsim.New(1)
	Generate(7, cfg).Schedule(sim, rec)
	sim.Run()
	if rec.leaderCrashes != 1 || rec.partitions != 2 || rec.lags != 1 {
		t.Fatalf("dispatched crashes=%d partitions=%d lags=%d", rec.leaderCrashes, rec.partitions, rec.lags)
	}
	sim2 := netsim.New(1)
	Generate(7, cfg).Schedule(sim2, &nopTarget{}) // must not panic
	sim2.Run()
}

type nopTarget struct{}

func (*nopTarget) CrashVM(int)                            {}
func (*nopTarget) FailNextBoot(int)                       {}
func (*nopTarget) PlatformDown(string)                    {}
func (*nopTarget) PlatformUp(string)                      {}
func (*nopTarget) LossBurst(string, float64, netsim.Time) {}
func (*nopTarget) CrashController()                       {}

type recordingReplTarget struct {
	nopTarget
	leaderCrashes, partitions, lags int
}

func (r *recordingReplTarget) CrashLeader()                { r.leaderCrashes++ }
func (r *recordingReplTarget) PartitionLeader(netsim.Time) { r.partitions++ }
func (r *recordingReplTarget) LagStandby(netsim.Time)      { r.lags++ }

// Kill the leader mid-deploy: the client saw no outcome for its last
// deploy, the standby auto-promotes, the client replays the ambiguous
// deploy and finishes the workload — and the survivor's state is
// byte-identical to a run where nothing crashed.
func TestReplLeaderCrashMidDeployConvergesWithBaseline(t *testing.T) {
	const n, killIdx = 6, 3
	want := baselineCanonical(t, n, killIdx)

	g := newReplGroup(t, 2, ReplGroupOptions{FailoverAfter: 150 * time.Millisecond})
	ids := make([]string, n)
	for i := 0; i < 3; i++ {
		d, err := g.Nodes[0].Ctl.Deploy(replRequest(i))
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		ids[i] = d.ID
	}

	// The crash: deploy 2's admission is journaled and replicated, but
	// the "client" never hears back — exactly the ambiguous window a
	// mid-deploy leader kill leaves behind.
	g.Crash(0)

	waitRepl(t, "standby auto-promotion", func() bool {
		return g.Nodes[1].Node.Role() == controller.RoleLeader
	})
	if g.Leader() != 1 {
		t.Fatal("survivor is not the current leader")
	}
	requireWarmReplica(t, g.Nodes[1])

	// Replay the ambiguous deploy: idempotent, same deployment.
	d, reused, err := g.Nodes[1].Ctl.DeployIdempotent(replRequest(2))
	if err != nil {
		t.Fatalf("replay deploy 2: %v", err)
	}
	if !reused || d.ID != ids[2] {
		t.Fatalf("replay: reused=%v id=%s, want reuse of %s", reused, d.ID, ids[2])
	}

	for i := 3; i < n; i++ {
		d, err := g.Nodes[1].Ctl.Deploy(replRequest(i))
		if err != nil {
			t.Fatalf("deploy %d on survivor: %v", i, err)
		}
		ids[i] = d.ID
	}
	if err := g.Nodes[1].Ctl.Kill(ids[killIdx]); err != nil {
		t.Fatalf("kill on survivor: %v", err)
	}

	got := g.Nodes[1].Store.State().Canonical()
	if !bytes.Equal(got, want) {
		t.Errorf("survivor state diverged from uncrashed baseline:\nbaseline:\n%s\nsurvivor:\n%s", want, got)
	}
	requireWarmReplica(t, g.Nodes[1])
}

// Partition the leader from its standby (clients still reach both):
// the leader must fence itself instead of forking history, the
// standby takes over, and after the heal the deposed leader's
// unreplicated suffix is discarded — both nodes converge on a state
// byte-identical to an unfaulted run.
func TestReplPartitionFencesLeaderAndConverges(t *testing.T) {
	const n = 3
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 2, ReplGroupOptions{
		AckTimeout:    300 * time.Millisecond,
		FailoverAfter: 150 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}

	g.Isolate(0)

	// The deploy on the isolated leader blocks on sync replication,
	// then fails as the leader fences itself.
	_, err := g.Nodes[0].Ctl.Deploy(replRequest(2))
	if err == nil {
		t.Fatal("deploy on a partitioned leader succeeded; history may have forked")
	}
	if !errors.Is(err, replication.ErrFenced) {
		t.Fatalf("partitioned deploy error = %v, want ErrFenced", err)
	}
	waitRepl(t, "old leader fenced", func() bool { return g.Nodes[0].Node.Fenced() })

	// The standby, hearing silence, promotes itself; the client
	// retries there.
	waitRepl(t, "standby auto-promotion", func() bool {
		return g.Nodes[1].Node.Role() == controller.RoleLeader
	})
	requireWarmReplica(t, g.Nodes[1])
	if _, err := g.Nodes[1].Ctl.Deploy(replRequest(2)); err != nil {
		t.Fatalf("retry on new leader: %v", err)
	}

	g.Heal()

	// The new leader resynchronizes the deposed one; its journaled-
	// but-unacknowledged deploy 2 is discarded for the survivor's.
	// That deploy is canonically identical to the survivor's, so only
	// the sequence numbers show the resync has happened.
	waitRepl(t, "deposed leader resync", func() bool {
		return g.Nodes[0].Store.Seq() == g.Nodes[1].Store.Seq() &&
			bytes.Equal(g.Nodes[0].Store.State().Canonical(), g.Nodes[1].Store.State().Canonical())
	})
	got := g.Nodes[1].Store.State().Canonical()
	if !bytes.Equal(got, want) {
		t.Errorf("converged state diverged from unfaulted baseline:\nbaseline:\n%s\nconverged:\n%s", want, got)
	}
	requireWarmReplica(t, g.Nodes[0])
	requireWarmReplica(t, g.Nodes[1])
	// And the fence holds after the heal: direct appends on the
	// deposed node still fail.
	if err := g.Nodes[0].Node.Append(journal.Record{Type: journal.EvReject, Reason: "probe"}); !errors.Is(err, replication.ErrFenced) {
		t.Errorf("deposed leader Append = %v, want ErrFenced", err)
	}
}

// A lagged replication stream slows sync admissions but loses
// nothing: the standby converges once the lag lifts.
func TestReplStandbyLagCatchesUp(t *testing.T) {
	const n = 4
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 2, ReplGroupOptions{AckTimeout: 5 * time.Second})
	g.SetLag(1, 50*time.Millisecond)
	for i := 0; i < n; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d under lag: %v", i, err)
		}
	}
	g.SetLag(1, 0)

	waitRepl(t, "standby catch-up", func() bool {
		return g.Nodes[1].Node.Info().LagRecords == 0 &&
			bytes.Equal(g.Nodes[1].Store.State().Canonical(), g.Nodes[0].Store.State().Canonical())
	})
	if got := g.Nodes[0].Store.State().Canonical(); !bytes.Equal(got, want) {
		t.Errorf("lagged run diverged from baseline:\nbaseline:\n%s\ngot:\n%s", want, got)
	}
	requireWarmReplica(t, g.Nodes[0])
	requireWarmReplica(t, g.Nodes[1])
	if g.Nodes[1].Ctl.Deployments(); len(g.Nodes[1].Ctl.Deployments()) != n {
		t.Errorf("standby holds %d deployments, want %d", len(g.Nodes[1].Ctl.Deployments()), n)
	}
}
