package faults

import (
	"errors"
	"strings"
	"testing"

	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

// Chaos regression for the admission cache: the cache must not open a
// new crash window. The dangerous spot is a cache-hit admission — the
// verdict and placement come back without re-running symexec, and if
// the process dies before the write-ahead admit record reaches disk,
// recovery must behave exactly as it would on a cache-disabled
// controller crashing at the same point. Both tests below run the
// identical scripted scenario against a cache-disabled and a
// cache-enabled cluster and require byte-identical summaries.

// admitDropJournal interposes on the controller's journal sink and
// fails the next EvAdmit append, modeling a process crash after
// admission completed but before the admit record was durable.
type admitDropJournal struct {
	inner   controller.Journal
	armed   bool
	dropped int
}

var errInjectedCrash = errors.New("injected: process crashed before admit append")

func (j *admitDropJournal) Append(r journal.Record) error {
	if j.armed && r.Type == journal.EvAdmit {
		j.armed = false
		j.dropped++
		return errInjectedCrash
	}
	return j.inner.Append(r)
}

func cacheCrashRequest() controller.Request {
	return controller.Request{
		Tenant:     "tenant-cc",
		ModuleName: "cache-crash",
		Config:     chaosStateless,
		Trust:      security.ThirdParty,
	}
}

func newCacheCrashCluster(t *testing.T, cacheSize int) *Cluster {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClusterWithOptions(5, topo, operatorHTTPPolicy, t.TempDir(),
		controller.Options{AdmissionCache: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// killModule kills a deployment, which the reconciler tears down on
// its platform and switch, so an identical redeploy exercises the
// cache-hit admission path.
func killModule(t *testing.T, cl *Cluster, idx int) {
	t.Helper()
	d := cl.dep(idx)
	if d == nil {
		t.Fatalf("module %d has no deployment", idx)
	}
	if err := cl.Ctl.Kill(d.ID); err != nil {
		t.Fatalf("kill %s: %v", d.ID, err)
	}
	if cl.Platform(d.Platform).HasModule(d.Addr) {
		t.Fatalf("kill %s left the module registered on %s", d.ID, d.Platform)
	}
}

// crashBeforeAdmitScenario: deploy, kill, then attempt an identical
// redeploy whose admit append dies mid-flight (the crash point), crash
// and recover the controller, redeploy for real and push traffic.
// Returns the final summary plus cache hits observed before the crash.
func crashBeforeAdmitScenario(t *testing.T, cl *Cluster) (summary string, preCrashHits uint64) {
	t.Helper()
	if _, err := cl.Deploy(cacheCrashRequest()); err != nil {
		t.Fatalf("initial deploy: %v", err)
	}
	killModule(t, cl, 0)

	fj := &admitDropJournal{inner: cl.store, armed: true}
	cl.Ctl.AttachJournal(fj)
	if _, err := cl.Deploy(cacheCrashRequest()); err == nil {
		t.Fatal("deploy survived a failed admit append")
	} else if !strings.Contains(err.Error(), errInjectedCrash.Error()) {
		t.Fatalf("deploy failed for the wrong reason: %v", err)
	}
	if fj.dropped != 1 {
		t.Fatalf("admit append dropped %d times, want 1", fj.dropped)
	}
	preCrashHits = cl.Ctl.CacheStats().Hits

	cl.CrashController()
	if cl.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", cl.Recoveries)
	}
	if len(cl.Errs) != 0 {
		t.Fatalf("recovery errors: %v", cl.Errs)
	}
	// The un-journaled admission must not have leaked into recovery.
	if deps := cl.Ctl.Deployments(); len(deps) != 0 {
		t.Fatalf("recovered controller resurrected %d deployments", len(deps))
	}

	idx, err := cl.Deploy(cacheCrashRequest())
	if err != nil {
		t.Fatalf("post-recovery deploy: %v", err)
	}
	cl.Sim.At(netsim.Millis(1), func() {
		cl.Send(idx, probe(1))
		cl.Send(idx, probe(2))
	})
	cl.Sim.Run()
	return cl.Summary(), preCrashHits
}

func TestCacheHitAdmitCrashRecoversLikeUncached(t *testing.T) {
	uncached := newCacheCrashCluster(t, -1)
	base, baseHits := crashBeforeAdmitScenario(t, uncached)
	if baseHits != 0 {
		t.Fatalf("disabled cache recorded %d hits", baseHits)
	}

	cached := newCacheCrashCluster(t, 0)
	got, hits := crashBeforeAdmitScenario(t, cached)
	// The doomed redeploy must actually have been answered from cache —
	// otherwise this test is not exercising the window it claims to.
	if hits == 0 {
		t.Fatal("redeploy before the crash did not hit the admission cache")
	}
	if got != base {
		t.Errorf("cache-enabled crash recovery diverged from uncached:\n--- uncached\n%s--- cached\n%s", base, got)
	}
}

// The complementary window: the cache-hit admission IS journaled, and
// the controller crashes right after. Replay rebuilds the deployment
// from the admit record alone; whether the original admission came
// from cache or cold symexec must be indistinguishable on disk.
func TestCacheHitAdmitJournaledThenCrash(t *testing.T) {
	run := func(cacheSize int) (string, *Cluster) {
		cl := newCacheCrashCluster(t, cacheSize)
		if _, err := cl.Deploy(cacheCrashRequest()); err != nil {
			t.Fatalf("initial deploy: %v", err)
		}
		killModule(t, cl, 0)
		idx, err := cl.Deploy(cacheCrashRequest())
		if err != nil {
			t.Fatalf("redeploy: %v", err)
		}
		pre := cl.dep(idx)
		cl.CrashController()
		if len(cl.Errs) != 0 {
			t.Fatalf("recovery errors: %v", cl.Errs)
		}
		post := cl.dep(idx)
		if post == nil {
			t.Fatal("cache-hit deployment lost across crash")
		}
		if post.Platform != pre.Platform || post.Addr != pre.Addr {
			t.Fatalf("placement moved across crash: %s/%d -> %s/%d",
				pre.Platform, pre.Addr, post.Platform, post.Addr)
		}
		cl.Sim.At(netsim.Millis(1), func() {
			cl.Send(idx, probe(1))
			cl.Send(idx, probe(2))
		})
		cl.Sim.Run()
		return cl.Summary(), cl
	}

	base, _ := run(-1)
	got, cached := run(0)
	if cached.Ctl.CacheStats().Hits != 0 {
		// The restored controller starts cold: hits here would mean the
		// cache was journaled, which it must never be.
		t.Errorf("restored controller's cache is warm: %+v", cached.Ctl.CacheStats())
	}
	if got != base {
		t.Errorf("journaled cache-hit recovery diverged from uncached:\n--- uncached\n%s--- cached\n%s", base, got)
	}
}
