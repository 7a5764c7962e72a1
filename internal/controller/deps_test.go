package controller

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
)

// rebuildDigests is the from-scratch dependency-token table: every
// on-network deployment's "mod:" digest, and per platform the hash of
// its sorted digests. The controller maintains the same table one
// deployment at a time; this rebuild is the oracle it must agree with.
func rebuildDigests(c *Controller) map[string]string {
	platforms := c.topo.Platforms()
	perPf := make(map[string][]string, len(platforms))
	out := make(map[string]string, len(c.deployments)+len(platforms))
	for _, d := range c.deployments {
		if !d.onNetwork() {
			continue
		}
		perPf[d.Platform] = append(perPf[d.Platform], d.digest)
		out["mod:"+d.ModuleName] = d.digest
	}
	for _, pl := range platforms {
		digests := perPf[pl]
		sort.Strings(digests)
		out["pf:"+pl] = hashKey(append([]string{"pf"}, digests...)...)
	}
	return out
}

// maintainedDigests renders the maintained table as rebuildDigests
// does, checking on the way that every token resolves through token().
func maintainedDigests(t *testing.T, tab *depTable) map[string]string {
	t.Helper()
	out := make(map[string]string, len(tab.mods)+len(tab.pf))
	for name, d := range tab.mods {
		out["mod:"+name] = d
	}
	for pl, d := range tab.pf {
		out["pf:"+pl] = d
	}
	for tok, d := range out {
		if got := tab.token(tok); got != d {
			t.Fatalf("token(%q) = %q, table holds %q", tok, got, d)
		}
	}
	return out
}

// checkDigests compares a controller's maintained table with a
// from-scratch rebuild.
func checkDigests(t *testing.T, label string, c *Controller) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	checkDigestsLocked(t, label, c)
}

func checkDigestsLocked(t *testing.T, label string, c *Controller) {
	t.Helper()
	want := rebuildDigests(c)
	got := maintainedDigests(t, &c.deps)
	if !maps.Equal(got, want) {
		t.Fatalf("%s: maintained dependency tokens differ from a rebuild\n got %v\nwant %v", label, got, want)
	}
}

// The dependency-token table is kept up to date in the transition
// function rather than rebuilt before each lookup. After every op of
// the mutation script (deploys, kills, outages with failover,
// recoveries with retries, queries), and at every placement attempt
// that syncs the network (a failover's takes its module off the
// network first), the leader's table and its standby twin's (fed
// through ApplyRecord) must equal a from-scratch rebuild, and so must
// the tables of controllers loaded by ResetToState and Restore from
// the journal.
func TestDepTableMatchesRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := newFoldHarness(t)
			syncs := 0
			h.leader.syncHook = func([]topology.HostedModule, *symexec.Network, *topology.NetMap, error) {
				syncs++
				checkDigestsLocked(t, fmt.Sprintf("sync %d", syncs), h.leader)
			}
			mutationScriptEach(h.leader, seed, 40, func(op int) {
				checkDigests(t, fmt.Sprintf("op %d leader", op), h.leader)
				checkDigests(t, fmt.Sprintf("op %d twin", op), h.twin)
			})
			st := h.store.State()
			reset := newController(t)
			if err := reset.ResetToState(st); err != nil {
				t.Fatal(err)
			}
			checkDigests(t, "ResetToState", reset)
			topo, err := topology.PaperFig3()
			if err != nil {
				t.Fatal(err)
			}
			restored, _, err := Restore(topo, operatorHTTPPolicy, Options{}, st, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkDigests(t, "Restore", restored)
		})
	}
}

// Restore takes a module whose platform lost it off the network before
// re-placing it; the table follows both steps.
func TestDepTableFollowsRestoreReplacement(t *testing.T) {
	h := newFoldHarness(t)
	dep, err := h.leader.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	restored, rep, err := Restore(topo, operatorHTTPPolicy, Options{}, h.store.State(), lostInventory{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Replaced)+len(rep.Failed) != 1 {
		t.Fatalf("recovery report %+v, want %s replaced or failed", rep, dep.ID)
	}
	checkDigests(t, "Restore with a lost module", restored)
}

// lostInventory reports every module as gone from its platform.
type lostInventory struct{}

func (lostInventory) HasModule(string, uint32) bool { return false }
