package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/symexec"
)

// snapshotConfigs are the module configurations the snapshot tests
// place: the Fig. 4 batcher, a web mirror, a DNS mirror with the web
// mirror's element names, and a source-only keepalive generator that
// wires no demux branch.
var snapshotConfigs = []string{
	batcherModule,
	`
in :: FromNetfront();
f :: IPFilter(allow tcp dst port 80);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`,
	`
in :: FromNetfront();
f :: IPFilter(allow udp dst port 53);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`,
	`
src :: TimedSource(0.25, "ka");
snat :: SetIPSrc(198.51.100.8);
out :: ToNetfront();
src -> snat -> out;
`,
}

// snapshotPlatforms and their pools, in PaperFig3.
var snapshotPlatforms = []string{"Platform1", "Platform2", "Platform3"}

func platformAddr(t testing.TB, tp *Topology, platform string, host int) uint32 {
	t.Helper()
	lo, _ := tp.Node(platform).Pool.Range()
	return lo + 1 + uint32(host)
}

// probeRenders runs the unconstrained client and internet injections,
// bounded (mirrors bounce flows around the network), and renders both
// results.
func probeRenders(t testing.TB, net *symexec.Network) string {
	t.Helper()
	var out string
	for _, from := range []string{NodeClient, NodeInternet} {
		res, err := net.Run(symexec.Injection{Node: from, MaxHops: 24, MaxStates: 512})
		if err != nil {
			t.Fatalf("probe from %s: %v", from, err)
		}
		out += "# from " + from + "\n" + res.Canonical()
	}
	return out
}

// Compile numbers a platform's demux branches by (address, ID), so the
// slice order of the module list changes nothing: not the network, and
// not what symbolic execution reports on it.
func TestCompileOrderIndependent(t *testing.T) {
	tp, err := PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	var mods []HostedModule
	for i := 0; i < 9; i++ {
		pf := snapshotPlatforms[i%2*2] // Platform1 and Platform3
		mods = append(mods, HostedModule{
			ID: fmt.Sprintf("m%d", i), Platform: pf, Addr: platformAddr(t, tp, pf, 8-i),
			Router: click.MustBuildString(snapshotConfigs[i%len(snapshotConfigs)]),
		})
	}
	// Two modules on one address: the ID breaks the tie.
	mods = append(mods, HostedModule{
		ID: "tie", Platform: "Platform1", Addr: mods[0].Addr,
		Router: click.MustBuildString(snapshotConfigs[1]),
	})
	net, _, err := tp.Compile(mods)
	if err != nil {
		t.Fatal(err)
	}
	wantNet, wantRuns := net.Canonical(), probeRenders(t, net)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		rng.Shuffle(len(mods), func(a, b int) { mods[a], mods[b] = mods[b], mods[a] })
		net, _, err := tp.Compile(mods)
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Canonical(); got != wantNet {
			t.Fatalf("shuffle %d: network differs:\n%s\nwant\n%s", i, got, wantNet)
		}
		if got := probeRenders(t, net); got != wantRuns {
			t.Fatalf("shuffle %d: probe runs differ", i)
		}
	}
}

// FuzzSnapshotSync drives one Snapshot through random module-list
// edits (add, kill, move to another platform or address, re-add an ID
// with a new router, and lists that cannot compile: an ID twice, or an
// ID whose element nodes clash with a middlebox's) and checks every
// Sync against a fresh Compile of the same list: the same error text,
// or the same network by Canonical() with the NetMap resolving every
// module to exactly what was given.
func FuzzSnapshotSync(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(40))
	}
	tp, err := PaperFig3()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		rng := rand.New(rand.NewSource(seed))
		snap := tp.NewSnapshot()
		ids := []string{"a", "b", "c", "d", "e"}
		newModule := func(id string) HostedModule {
			pf := snapshotPlatforms[rng.Intn(len(snapshotPlatforms))]
			return HostedModule{
				ID: id, Platform: pf, Addr: platformAddr(t, tp, pf, rng.Intn(4)),
				Router: click.MustBuildString(snapshotConfigs[rng.Intn(len(snapshotConfigs))]),
			}
		}
		var mods []HostedModule
		for op := 0; op < int(ops)%64; op++ {
			list := mods
			switch k := rng.Intn(10); {
			case k < 3: // add
				id := ids[rng.Intn(len(ids))]
				if hasModule(mods, id) {
					continue
				}
				mods = append(mods, newModule(id))
				list = mods
			case k < 5 && len(mods) > 0: // kill
				i := rng.Intn(len(mods))
				mods = append(mods[:i:i], mods[i+1:]...)
				list = mods
			case k < 6 && len(mods) > 0: // move, keeping the router
				i := rng.Intn(len(mods))
				moved := newModule(mods[i].ID)
				moved.Router = mods[i].Router
				mods[i] = moved
			case k < 7 && len(mods) > 0: // same ID, platform and address; new router
				i := rng.Intn(len(mods))
				mods[i].Router = click.MustBuildString(snapshotConfigs[rng.Intn(len(snapshotConfigs))])
			case k < 8 && len(mods) > 0: // an ID twice
				list = append(mods[:len(mods):len(mods)], newModule(mods[rng.Intn(len(mods))].ID))
			case k < 9: // element nodes named like a middlebox's
				list = append(mods[:len(mods):len(mods)], newModule("natfw"))
			}
			rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
			checkSync(t, tp, snap, list, fmt.Sprintf("seed %d op %d", seed, op))
		}
	})
}

func hasModule(mods []HostedModule, id string) bool {
	for _, m := range mods {
		if m.ID == id {
			return true
		}
	}
	return false
}

// checkSync syncs snap to mods and compares the outcome with a fresh
// Compile.
func checkSync(t *testing.T, tp *Topology, snap *Snapshot, mods []HostedModule, where string) {
	t.Helper()
	net, nm, err := snap.Sync(mods)
	wantNet, _, wantErr := tp.Compile(mods)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Sync error %v, Compile error %v", where, err, wantErr)
	}
	if err != nil {
		return
	}
	if got, want := net.Canonical(), wantNet.Canonical(); got != want {
		t.Fatalf("%s: synced network differs from a fresh compile:\n%s\nwant\n%s", where, got, want)
	}
	for _, m := range mods {
		got := nm.Module(m.ID)
		if got == nil || got.Platform != m.Platform || got.Addr != m.Addr || got.Router != m.Router {
			t.Fatalf("%s: NetMap module %q is %+v, want %+v", where, m.ID, got, m)
		}
	}
	if n := net.Nodes(); n != wantNet.Nodes() {
		t.Fatalf("%s: %d nodes, fresh compile has %d", where, n, wantNet.Nodes())
	}
}
