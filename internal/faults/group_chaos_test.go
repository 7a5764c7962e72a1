package faults

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/replication"
)

func newReplGroup(t *testing.T, n int, opts ReplGroupOptions) *ReplGroup {
	t.Helper()
	for i := 0; i < n; i++ {
		opts.Dirs = append(opts.Dirs, t.TempDir())
	}
	opts.Logf = t.Logf
	g, err := NewReplGroup(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// journalBytes reads a replica's raw journal file straight from disk.
func journalBytes(t *testing.T, g *ReplGroup, i int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(g.Nodes[i].Dir, journal.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireIdenticalJournals asserts the given replicas hold
// byte-identical journal files — same frames, same CRCs, same order.
func requireIdenticalJournals(t *testing.T, g *ReplGroup, idx ...int) {
	t.Helper()
	want := journalBytes(t, g, idx[0])
	for _, i := range idx[1:] {
		if got := journalBytes(t, g, i); !bytes.Equal(want, got) {
			t.Fatalf("journal files of replicas %d and %d differ: %d vs %d bytes",
				idx[0], i, len(want), len(got))
		}
	}
}

// awaitLeader waits for the group to settle on exactly one live
// unfenced leader and returns its index, checking that the promoted
// leader serves from a warm replica of its journal.
func awaitLeader(t *testing.T, g *ReplGroup) int {
	t.Helper()
	idx := -1
	waitRepl(t, "a settled leader", func() bool { idx = g.Leader(); return idx >= 0 })
	requireWarmReplica(t, g.Nodes[idx])
	return idx
}

// requireWarmGroup runs requireWarmReplica on every live replica.
func requireWarmGroup(t *testing.T, g *ReplGroup) {
	t.Helper()
	g.mu.Lock()
	var live []*ReplNode
	for i, n := range g.Nodes {
		if !g.crashed[i] {
			live = append(live, n)
		}
	}
	g.mu.Unlock()
	for _, n := range live {
		requireWarmReplica(t, n)
	}
}

// Crash the 3-node group's leader mid-deploy: a majority survives, an
// election produces a term-2 leader, the ambiguous deploy replays
// idempotently, and the survivors end byte-identical to each other
// and state-identical to an unfaulted run.
func TestGroupLeaderCrashMidDeployConverges(t *testing.T) {
	const n, killIdx = 6, 3
	want := baselineCanonical(t, n, killIdx)

	g := newReplGroup(t, 3, ReplGroupOptions{FailoverAfter: 150 * time.Millisecond})
	ids := make([]string, n)
	for i := 0; i < 3; i++ {
		d, err := g.Nodes[0].Ctl.Deploy(replRequest(i))
		if err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
		ids[i] = d.ID
	}

	// The crash: deploy 2's admission is quorum-committed, but the
	// "client" never heard back — the ambiguous window a mid-deploy
	// leader kill leaves behind.
	g.Crash(0)

	idx := awaitLeader(t, g)
	if idx == 0 {
		t.Fatal("crashed node reported as leader")
	}
	lead := g.Nodes[idx].Ctl
	d, reused, err := lead.DeployIdempotent(replRequest(2))
	if err != nil {
		t.Fatalf("replay deploy 2: %v", err)
	}
	if !reused || d.ID != ids[2] {
		t.Fatalf("replay: reused=%v id=%s, want reuse of %s", reused, d.ID, ids[2])
	}
	for i := 3; i < n; i++ {
		d, err := lead.Deploy(replRequest(i))
		if err != nil {
			t.Fatalf("deploy %d on successor: %v", i, err)
		}
		ids[i] = d.ID
	}
	if err := lead.Kill(ids[killIdx]); err != nil {
		t.Fatalf("kill on successor: %v", err)
	}

	other := 3 - idx // the surviving follower (1 or 2)
	waitRepl(t, "survivor convergence", func() bool {
		return g.Nodes[other].Store.Seq() == g.Nodes[idx].Store.Seq()
	})
	if got := g.Nodes[idx].Store.State().Canonical(); !bytes.Equal(got, want) {
		t.Errorf("survivor state diverged from uncrashed baseline:\nbaseline:\n%s\nsurvivor:\n%s", want, got)
	}
	requireWarmGroup(t, g)
	requireIdenticalJournals(t, g, idx, other)
}

// Isolate one follower of a 3-node group: strict appends keep
// committing on the remaining majority — the availability win a pair
// cannot offer — and the laggard converges byte-identically on heal.
func TestGroupFollowerIsolationDoesNotBlockQuorum(t *testing.T) {
	const n = 4
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 3, ReplGroupOptions{AckTimeout: 2 * time.Second})
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(0)); err != nil {
		t.Fatalf("deploy 0: %v", err)
	}
	g.Isolate(2)
	start := time.Now()
	for i := 1; i < n; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d with follower isolated: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("majority commits took %v — blocked on the isolated follower?", elapsed)
	}
	if g.Nodes[0].Node.Fenced() {
		t.Fatal("leader fenced despite holding a majority")
	}
	g.Heal()
	waitRepl(t, "laggard catch-up", func() bool {
		return g.Nodes[2].Store.Seq() == g.Nodes[0].Store.Seq()
	})
	requireWarmGroup(t, g)
	if got := g.Nodes[0].Store.State().Canonical(); !bytes.Equal(got, want) {
		t.Errorf("state diverged from baseline:\nbaseline:\n%s\ngot:\n%s", want, got)
	}
	requireIdenticalJournals(t, g, 0, 1, 2)
}

// A lagged stream toward one follower slows nothing: commits ride the
// faster follower, and the laggard converges once the lag lifts.
func TestGroupFollowerLagCatchesUp(t *testing.T) {
	const n = 4
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 3, ReplGroupOptions{AckTimeout: 5 * time.Second})
	g.SetLag(2, 50*time.Millisecond)
	for i := 0; i < n; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d under lag: %v", i, err)
		}
	}
	g.SetLag(2, 0)
	waitRepl(t, "lagged follower catch-up", func() bool {
		return g.Nodes[2].Store.Seq() == g.Nodes[0].Store.Seq() &&
			g.Nodes[1].Store.Seq() == g.Nodes[0].Store.Seq()
	})
	requireWarmGroup(t, g)
	if got := g.Nodes[0].Store.State().Canonical(); !bytes.Equal(got, want) {
		t.Errorf("state diverged from baseline:\nbaseline:\n%s\ngot:\n%s", want, got)
	}
	requireIdenticalJournals(t, g, 0, 1, 2)
}

// Isolate the LEADER of a 3-node group: it must fence within the ack
// timeout (no fork), the majority elects a successor that keeps
// serving, and on heal the deposed leader's unacknowledged suffix is
// discarded — every replica converges on the majority's history.
func TestGroupMinorityIsolatedLeaderFencesNoFork(t *testing.T) {
	const n = 3
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 3, ReplGroupOptions{
		AckTimeout:    300 * time.Millisecond,
		FailoverAfter: 150 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	g.Isolate(0)

	// The deploy on the isolated leader journals locally, blocks on
	// quorum, then fails as the leader fences itself.
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(2)); !errors.Is(err, replication.ErrFenced) {
		t.Fatalf("isolated leader deploy = %v, want ErrFenced", err)
	}
	waitRepl(t, "old leader fenced", func() bool { return g.Nodes[0].Node.Fenced() })

	idx := awaitLeader(t, g)
	if idx == 0 {
		t.Fatal("fenced minority leader still counted as leader")
	}
	if _, err := g.Nodes[idx].Ctl.Deploy(replRequest(2)); err != nil {
		t.Fatalf("retry on successor: %v", err)
	}

	g.Heal()
	waitRepl(t, "deposed leader resync", func() bool {
		want := g.Nodes[idx].Store.Seq()
		return g.Nodes[0].Store.Seq() == want && g.Nodes[3-idx].Store.Seq() == want
	})
	requireWarmGroup(t, g)
	for i := 0; i < 3; i++ {
		if got := g.Nodes[i].Store.State().Canonical(); !bytes.Equal(got, want) {
			t.Errorf("replica %d diverged from unfaulted baseline:\nbaseline:\n%s\ngot:\n%s", i, want, got)
		}
	}
	// The fence holds after the heal.
	if err := g.Nodes[0].Node.Append(journal.Record{Type: journal.EvReject, Reason: "probe"}); !errors.Is(err, replication.ErrFenced) {
		t.Errorf("deposed leader Append = %v, want ErrFenced", err)
	}
	// The majority pair never resynced: their journals stayed
	// byte-identical the whole way.
	other := 3 - idx
	requireIdenticalJournals(t, g, idx, other)
}

// Symmetric partition of a 5-node group (leader+1 vs 3): the minority
// leader fences, the 3-side elects and serves, and the heal folds the
// minority — including its discarded suffix — back into one history.
func TestGroupSymmetricPartitionFiveNodes(t *testing.T) {
	const n = 4
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 5, ReplGroupOptions{
		AckTimeout:    300 * time.Millisecond,
		FailoverAfter: 150 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		if _, err := g.Nodes[0].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d: %v", i, err)
		}
	}
	g.SetPartition([][]int{{0, 1}, {2, 3, 4}})

	// Minority side: the leader (and the follower that acked its
	// doomed frame) cannot reach quorum — fence, no fork.
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(2)); !errors.Is(err, replication.ErrFenced) {
		t.Fatalf("minority leader deploy = %v, want ErrFenced", err)
	}

	// Majority side: elects among {2,3,4} and serves.
	var idx int
	waitRepl(t, "majority-side leader", func() bool {
		idx = g.Leader()
		return idx >= 2
	})
	requireWarmReplica(t, g.Nodes[idx])
	for i := 2; i < n; i++ {
		if _, err := g.Nodes[idx].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d on majority side: %v", i, err)
		}
	}

	g.Heal()
	waitRepl(t, "whole-group convergence", func() bool {
		want := g.Nodes[idx].Store.Seq()
		for i := 0; i < 5; i++ {
			if g.Nodes[i].Store.Seq() != want {
				return false
			}
		}
		return true
	})
	requireWarmGroup(t, g)
	for i := 0; i < 5; i++ {
		if got := g.Nodes[i].Store.State().Canonical(); !bytes.Equal(got, want) {
			t.Errorf("replica %d diverged from unfaulted baseline", i)
		}
	}
	// The three majority replicas never diverged: byte-identical files.
	majority := []int{2, 3, 4}
	found := false
	for _, m := range majority {
		if m == idx {
			found = true
		}
	}
	if !found {
		t.Fatalf("leader %d is not on the majority side", idx)
	}
	requireIdenticalJournals(t, g, majority...)
}

// Rolling restarts: every follower (and finally the leader) crashes
// and rejoins; the group keeps serving throughout and ends with all
// three journal FILES byte-identical — restarts and failovers left no
// divergent bytes anywhere.
func TestGroupRollingRestartsConverge(t *testing.T) {
	const n = 5
	want := baselineCanonical(t, n, -1)

	g := newReplGroup(t, 3, ReplGroupOptions{
		FailoverAfter: 150 * time.Millisecond,
	})
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(0)); err != nil {
		t.Fatalf("deploy 0: %v", err)
	}

	// Roll follower 1.
	g.Crash(1)
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(1)); err != nil {
		t.Fatalf("deploy 1 with follower 1 down: %v", err)
	}
	if err := g.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitRepl(t, "follower 1 rejoin", func() bool {
		return g.Nodes[1].Store.Seq() == g.Nodes[0].Store.Seq()
	})
	requireWarmGroup(t, g)

	// Roll follower 2.
	g.Crash(2)
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(2)); err != nil {
		t.Fatalf("deploy 2 with follower 2 down: %v", err)
	}
	if err := g.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitRepl(t, "follower 2 rejoin", func() bool {
		return g.Nodes[2].Store.Seq() == g.Nodes[0].Store.Seq()
	})
	requireWarmGroup(t, g)

	// Roll the leader: crash, let the group elect, keep serving, then
	// bring the old leader back as a follower.
	g.Crash(0)
	idx := awaitLeader(t, g)
	if idx == 0 {
		t.Fatal("crashed leader still counted as leader")
	}
	for i := 3; i < n; i++ {
		if _, err := g.Nodes[idx].Ctl.Deploy(replRequest(i)); err != nil {
			t.Fatalf("deploy %d on successor: %v", i, err)
		}
	}
	if err := g.Restart(0); err != nil {
		t.Fatal(err)
	}
	waitRepl(t, "old leader rejoin as follower", func() bool {
		return g.Nodes[0].Store.Seq() == g.Nodes[idx].Store.Seq() &&
			g.Nodes[3-idx].Store.Seq() == g.Nodes[idx].Store.Seq()
	})
	if g.Nodes[0].Node.Role() == controller.RoleLeader {
		t.Fatal("restarted old leader came back as leader")
	}
	requireWarmGroup(t, g)

	for i := 0; i < 3; i++ {
		if got := g.Nodes[i].Store.State().Canonical(); !bytes.Equal(got, want) {
			t.Errorf("replica %d diverged from unfaulted baseline:\nbaseline:\n%s\ngot:\n%s", i, want, got)
		}
	}
	// The strongest promise: every journal file in the group is
	// byte-identical — crashes, elections and rejoins included, the
	// replicated log IS the leader's log, bit for bit.
	requireIdenticalJournals(t, g, 0, 1, 2)
}

// A minority fragment must never elect: two nodes of five, even with
// automatic failover armed, stay followers forever.
func TestGroupMinorityFragmentCannotElect(t *testing.T) {
	g := newReplGroup(t, 5, ReplGroupOptions{
		AckTimeout:      200 * time.Millisecond,
		FailoverAfter:   100 * time.Millisecond,
		ElectionTimeout: 100 * time.Millisecond,
	})
	if _, err := g.Nodes[0].Ctl.Deploy(replRequest(0)); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	// Cut followers 3 and 4 off together: they hear no leader, they
	// campaign — and with 2 of 5 votes they must never win.
	g.SetPartition([][]int{{0, 1, 2}, {3, 4}})
	time.Sleep(600 * time.Millisecond) // several failover+election cycles
	for _, i := range []int{3, 4} {
		if g.Nodes[i].Node.Role() == controller.RoleLeader {
			t.Fatalf("minority fragment node %d promoted itself", i)
		}
	}
	// The majority side never lost its leader.
	if g.Leader() != 0 {
		t.Fatalf("leader = %d, want 0 (undisturbed majority)", g.Leader())
	}
	g.Heal()
	waitRepl(t, "fragment rejoin", func() bool {
		return g.Nodes[3].Store.Seq() == g.Nodes[0].Store.Seq() &&
			g.Nodes[4].Store.Seq() == g.Nodes[0].Store.Seq()
	})
	requireWarmGroup(t, g)
}
