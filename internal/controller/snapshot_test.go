package controller

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/policy"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
)

// dnsMirrorConfig has webMirrorConfig's element names but filters DNS:
// deployed as "mirror", it re-adds bob's module ID with a different
// router, often on the same platform and address.
const dnsMirrorConfig = `
in :: FromNetfront();
f :: IPFilter(allow udp dst port 53);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

// TestSnapshotSyncMatchesCompile is the oracle for the controller's
// synced placement snapshot. For every prefix of mutationScriptEach
// (24 seeds of 40 ops, with and without the admission cache) it checks
// every placement attempt's Sync against a fresh Compile of the same
// module list: the same error text, or the same network by Canonical()
// with the NetMap resolving each module to what was given, the
// operator policy rendering identically (verdict, visited nodes,
// by-name references), and client and internet probes rendering
// identically. A probe with Watch set on the synced network must
// report the fresh network's arrival set as Visited.
//
// Between script ops a second stream deploys and kills modules of
// three more tenants: eve's "mirror" clashes with bob's ID, carol's
// "mirror2" shares its config, and dave's "mirror" re-adds the ID with
// a DNS filter, also straight after a kill of whichever "mirror" is
// up. Every 13th op reloads the controller from its own folded state,
// which rebuilds every module's router.
func TestSnapshotSyncMatchesCompile(t *testing.T) {
	attempts := 0
	for _, cacheSize := range []int{0, -1} {
		for seed := uint64(1); seed <= 24; seed++ {
			c := newDifferentialController(t, cacheSize)
			where := func() string { return fmt.Sprintf("cache %d seed %d attempt %d", cacheSize, seed, attempts) }
			c.syncHook = func(mods []topology.HostedModule, net *symexec.Network, nm *topology.NetMap, err error) {
				attempts++
				checkSyncedSnapshot(t, c, mods, net, nm, err, where())
			}
			rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
			others := []Request{
				{Tenant: "eve", ModuleName: "mirror", Trust: security.ThirdParty, Config: webMirrorConfig},
				{Tenant: "carol", ModuleName: "mirror2", Trust: security.ThirdParty, Config: webMirrorConfig},
				{Tenant: "dave", ModuleName: "mirror", Trust: security.ThirdParty, Config: dnsMirrorConfig},
			}
			after := func(op int) {
				switch r := rng.Intn(8); {
				case r < 3:
					c.Deploy(others[r])
				case r < 6:
					for _, d := range c.Deployments() {
						if d.Tenant == others[r-3].Tenant {
							c.Kill(d.ID)
						}
					}
				case r == 6: // swap whichever "mirror" is up for dave's
					for _, d := range c.Deployments() {
						if d.ModuleName == "mirror" {
							c.Kill(d.ID)
						}
					}
					c.Deploy(others[2])
				}
				if op%13 == 12 {
					if err := c.ResetToState(c.State(), nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			mutationScriptEach(c, seed, 40, after)
		}
	}
	if attempts < 1000 {
		t.Fatalf("only %d placement attempts synced the snapshot", attempts)
	}
}

// checkSyncedSnapshot compares one Sync outcome with a fresh Compile.
func checkSyncedSnapshot(t *testing.T, c *Controller, mods []topology.HostedModule, net *symexec.Network, nm *topology.NetMap, err error, where string) {
	t.Helper()
	fresh, freshNM, freshErr := c.topo.Compile(mods)
	if fmt.Sprint(err) != fmt.Sprint(freshErr) {
		t.Fatalf("%s: Sync error %v, Compile error %v", where, err, freshErr)
	}
	if err != nil {
		return
	}
	if got, want := net.Canonical(), fresh.Canonical(); got != want {
		t.Fatalf("%s: synced network differs from a fresh compile:\n%s\nwant\n%s", where, got, want)
	}
	for _, m := range mods {
		got := nm.Module(m.ID)
		if got == nil || got.Platform != m.Platform || got.Addr != m.Addr || got.Router != m.Router {
			t.Fatalf("%s: NetMap module %q is %+v, want %+v", where, m.ID, got, m)
		}
	}
	if got, want := policyRender(c, net, nm), policyRender(c, fresh, freshNM); got != want {
		t.Fatalf("%s: operator policy renders\n%s\nwant\n%s", where, got, want)
	}
	for _, from := range []string{topology.NodeClient, topology.NodeInternet} {
		inj := symexec.Injection{Node: from, MaxHops: 24, MaxStates: 512}
		got, gerr := net.Run(inj)
		want, werr := fresh.Run(inj)
		if gerr != nil || werr != nil {
			t.Fatalf("%s: probe from %s: %v / %v", where, from, gerr, werr)
		}
		if g, w := got.Canonical(), want.Canonical(); g != w {
			t.Fatalf("%s: probe from %s renders\n%s\nwant\n%s", where, from, g, w)
		}
		inj.Watch = topology.NodeClient
		watched, err := net.Run(inj)
		if err != nil {
			t.Fatal(err)
		}
		visited := make(map[string]bool, len(want.AtNode))
		for n := range want.AtNode {
			visited[n] = true
		}
		if g, w := sortedKeys(watched.Visited), sortedKeys(visited); g != w {
			t.Fatalf("%s: watched probe from %s visited %s, want %s", where, from, g, w)
		}
	}
}

// policyRender checks the operator policy and renders each outcome
// with the footprint the admission cache records for it.
func policyRender(c *Controller, net *symexec.Network, nm *topology.NetMap) string {
	var b strings.Builder
	for _, r := range c.operatorPolicy {
		env := &policy.CheckEnv{
			Net: net, Map: nm, ClientNet: c.topo.ClientNet,
			Visited: map[string]bool{}, RefNames: map[string]bool{},
		}
		res, err := r.Check(env)
		fmt.Fprintf(&b, "%s: %+v err=%v visited=%s refs=%s\n", r, res, err, sortedKeys(env.Visited), sortedKeys(env.RefNames))
	}
	return b.String()
}

func sortedKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// Once the resident set is in, a placement-cache miss edits the
// snapshot by one module: every Sync after the first adds at most the
// tentative module's element nodes.
func TestPlacementMissEditsOneModule(t *testing.T) {
	c := residentController(t, 0)
	syncs, last := 0, 0
	c.syncHook = func(mods []topology.HostedModule, _ *symexec.Network, _ *topology.NetMap, err error) {
		if err != nil {
			t.Fatalf("sync %d: %v", syncs, err)
		}
		added := c.snap.NodesAdded() - last
		last = c.snap.NodesAdded()
		syncs++
		if syncs == 1 {
			return
		}
		if tentative := mods[len(mods)-1]; added > len(tentative.Router.Elements()) {
			t.Errorf("sync %d added %d nodes, the tentative %q has %d", syncs, added, tentative.ID, len(tentative.Router.Elements()))
		}
	}
	for i := 0; i < 48; i++ {
		if _, err := c.Deploy(filterRequest(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 48; i < 56; i++ {
		dep, err := c.Deploy(filterRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Kill(dep.ID); err != nil {
			t.Fatal(err)
		}
	}
	if syncs < 56 {
		t.Fatalf("%d syncs for 56 cold deploys", syncs)
	}
}
