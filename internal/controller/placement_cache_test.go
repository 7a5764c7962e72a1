package controller

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

// deployTrace deploys req and returns the admission trace it left.
func deployTrace(t *testing.T, c *Controller, tr *telemetry.Tracer, req Request) (*Deployment, telemetry.Trace, error) {
	t.Helper()
	dep, err := c.Deploy(req)
	traces := tr.Recent(1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	return dep, traces[0], err
}

// A warm re-deploy answers every platform attempt's placement check
// from the cache, so it must not compile a network snapshot at all:
// the placement stage is only the tentative build ("cached"), and no
// lookup misses.
func TestPlacementHitSkipsCompile(t *testing.T) {
	c := newController(t)
	tr := telemetry.NewTracer(16)
	c.AttachTelemetry(nil, tr)
	resident := Request{Tenant: "bob", ModuleName: "mirror", Trust: security.ThirdParty, Config: webMirrorConfig}
	if _, err := c.Deploy(resident); err != nil {
		t.Fatal(err)
	}
	// Warm-up: Batcher is refused by its requirements on Platform1 and
	// Platform2 and lands on Platform3, so its pool request makes three
	// platform attempts.
	dep, err := c.Deploy(batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(dep.ID); err != nil {
		t.Fatal(err)
	}

	misses := c.CacheStats().Misses
	again, trace, err := deployTrace(t, c, tr, batcherRequest())
	if err != nil {
		t.Fatal(err)
	}
	if again.Platform != dep.Platform || again.Addr != dep.Addr {
		t.Errorf("re-deploy placed on %s/%d, want %s/%d", again.Platform, again.Addr, dep.Platform, dep.Addr)
	}
	if got := c.CacheStats().Misses; got != misses {
		t.Errorf("re-deploy missed the cache %d times, want 0", got-misses)
	}
	attempts := 0
	for _, st := range trace.Stages {
		switch st.Name {
		case StagePlacement:
			attempts++
			if !strings.HasSuffix(st.Detail, ": cached") {
				t.Errorf("placement stage %q compiled a snapshot on a warm re-deploy", st.Detail)
			}
		case StagePolicyCheck:
			t.Errorf("warm re-deploy ran the placement checks: %q", st.Detail)
		}
	}
	if attempts != 3 {
		t.Errorf("re-deploy made %d platform attempts, want 3 (stages: %+v)", attempts, trace.Stages)
	}
}

// A module whose name collides in the compiled network is refused by
// the snapshot compile even when its placement key is cached: the key
// does not cover the name, and a hit must not skip the compile that
// refuses it. Two collisions: a second tenant reusing a deployed
// module's name (duplicate module id), and a module named after a
// topology middlebox whose element names it shares ("pbr/in").
func TestPlacementHitKeepsIDClashRejection(t *testing.T) {
	mirror := func(tenant, name string) Request {
		return Request{Tenant: tenant, ModuleName: name, Trust: security.ThirdParty, Config: webMirrorConfig}
	}
	for _, tc := range []struct {
		name     string
		resident []Request // deployed first and kept
		clash    Request
		want     string
	}{
		{
			name:     "tenant reuses a module name",
			resident: []Request{mirror("bob", "mirror")},
			clash:    mirror("eve", "mirror"),
			want:     `controller: request rejected: platform Platform3: topology: duplicate module id "mirror"`,
		},
		{
			name:  "module named after a middlebox",
			clash: mirror("eve", "pbr"),
			want:  `controller: request rejected: platform Platform3: symexec: node "pbr/in" already exists`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newController(t)
			tr := telemetry.NewTracer(16)
			c.AttachTelemetry(nil, tr)
			for _, r := range tc.resident {
				if _, err := c.Deploy(r); err != nil {
					t.Fatal(err)
				}
			}
			// carol's copy of the same config caches its placement at
			// the address the clashing request will get; killing it
			// restores the state the entry was checked against.
			twin, err := c.Deploy(mirror("carol", "mirror2"))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Kill(twin.ID); err != nil {
				t.Fatal(err)
			}

			if _, err := c.Deploy(tc.clash); err == nil || err.Error() != tc.want {
				t.Fatalf("clashing deploy: err = %v, want %s", err, tc.want)
			}

			// The premise: the clashing request's placement key was
			// cached. A copy under a fresh name gets carol's old address
			// and hits it.
			dave, trace, err := deployTrace(t, c, tr, mirror("dave", "mirror3"))
			if err != nil {
				t.Fatal(err)
			}
			if dave.Platform != twin.Platform || dave.Addr != twin.Addr {
				t.Fatalf("fresh name placed on %s/%d, want %s/%d", dave.Platform, dave.Addr, twin.Platform, twin.Addr)
			}
			hit := false
			for _, st := range trace.Stages {
				hit = hit || (st.Name == StageCacheLookup && st.Detail == "placement: hit")
			}
			if !hit {
				t.Errorf("fresh-name deploy did not hit the placement cache (stages: %+v)", trace.Stages)
			}
		})
	}
}

// filterRequest is resident (or candidate) module i of the deploy
// benchmarks: a third-party port filter whose config differs per i.
func filterRequest(i int) Request {
	return Request{
		Tenant: fmt.Sprintf("t%d", i), ModuleName: fmt.Sprintf("m%d", i), Trust: security.ThirdParty,
		Whitelist: []string{"198.18.0.1"},
		Config: fmt.Sprintf(`
in :: FromNetfront();
fw :: IPFilter(allow tcp dst port %d, deny all);
fwd :: SetIPDst(198.18.0.1);
out :: ToNetfront();
in -> fw -> fwd -> out;
`, 1024+i),
	}
}

// residentController is a Fig. 3 controller under the HTTP operator
// policy with modules 0..n-1 of filterRequest admitted.
func residentController(tb testing.TB, n int) *Controller {
	tb.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(topo, operatorHTTPPolicy)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Deploy(filterRequest(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkWarmRedeploy is one deploy-warm cycle in process: with 96
// modules resident, re-deploy a previously admitted request and kill it
// again.
func BenchmarkWarmRedeploy(b *testing.B) {
	c := residentController(b, 96)
	pool := filterRequest(96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := c.Deploy(pool)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Kill(dep.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdAdmit is one deploy-cold cycle in process: with N
// modules resident, deploy a never-seen config, so every cache misses,
// and kill it again. N=96 is the deploy-cold workload's resident set;
// 100, 300 and 500 trace how cold admission grows with the residents
// (every policy flow that reaches a platform's demux is matched against
// each module the platform hosts).
func BenchmarkColdAdmit(b *testing.B) {
	for _, n := range []int{96, 100, 300, 500} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c := residentController(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := c.Deploy(filterRequest(n + i))
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Kill(dep.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
