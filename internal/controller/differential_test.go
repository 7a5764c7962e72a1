package controller

import (
	"fmt"
	"strings"
	"testing"

	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/topology"
)

// The differential admission test: the cache must be invisible in
// every admission outcome. One scripted request sequence — accepts,
// rejects (policy and security, with their reasons), queries, kills,
// re-deploys — runs against (a) a controller with caching disabled,
// (b) a cache-enabled controller on its cold first pass and (c) the
// same controller again, now answering from warm cache, and the three
// transcripts must match byte for byte. Deployment IDs are the only
// field excluded: the ID counter is monotonic across passes by
// design.

const spoofConfig = `
in :: FromNetfront();
sp :: SetIPSrc(203.0.113.66);
fwd :: SetIPDst(192.0.2.1);
out :: ToNetfront();
in -> sp -> fwd -> out;
`

// admissionScript runs the scripted sequence and serializes every
// outcome. The script ends with the deployment set empty, so a second
// pass starts from the same dependency digests it began with.
func admissionScript(c *Controller) string {
	var b strings.Builder
	deploy := func(label string, req Request) string {
		dep, err := c.Deploy(req)
		if err != nil {
			fmt.Fprintf(&b, "deploy %s: err %v\n", label, err)
			return ""
		}
		fmt.Fprintf(&b, "deploy %s: ok platform=%s addr=%s sandboxed=%t verdict=%v reasons=%q findings=%d config=%d:%s\n",
			label, dep.Platform, packet.IPString(dep.Addr), dep.Sandboxed,
			dep.Security.Verdict, dep.Security.Reasons, len(dep.Security.Findings),
			len(dep.Config), dep.Config)
		return dep.ID
	}
	query := func(label, reqs string) {
		res, err := c.Query(reqs)
		if err != nil {
			fmt.Fprintf(&b, "query %s: err %v\n", label, err)
			return
		}
		fmt.Fprintf(&b, "query %s: satisfied=%t reason=%q\n", label, res.Satisfied, res.Reason)
	}

	id := deploy("batcher", batcherRequest())
	deploy("dup", batcherRequest())

	unsat := batcherRequest()
	unsat.ModuleName = "Batcher2"
	unsat.Requirements = "reach from internet tcp -> Batcher2:dst:0 -> client"
	deploy("unsat", unsat)

	deploy("spoof", Request{
		Tenant: "mallory", ModuleName: "spoof", Trust: security.ThirdParty,
		Config: spoofConfig, Whitelist: []string{"192.0.2.1"},
	})

	query("reach", batcherRequirements)
	query("unreach", "reach from internet tcp -> Batcher:dst:0 -> client")

	if id != "" {
		fmt.Fprintf(&b, "kill batcher: %v\n", c.Kill(id))
	}
	// Re-deploy after kill: the warm pass must hand back the identical
	// placement (address allocation is deterministic) and verdict.
	id2 := deploy("batcher-again", batcherRequest())
	if id2 != "" {
		fmt.Fprintf(&b, "kill batcher-again: %v\n", c.Kill(id2))
	}
	return b.String()
}

func newDifferentialController(t *testing.T, cacheSize int) *Controller {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithOptions(topo, operatorHTTPPolicy, Options{AdmissionCache: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAdmissionCacheDifferential(t *testing.T) {
	uncached := newDifferentialController(t, -1)
	cold := admissionScript(uncached)
	if s := uncached.CacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", s)
	}

	cached := newDifferentialController(t, 0)
	first := admissionScript(cached)
	statsAfterFirst := cached.CacheStats()
	warm := admissionScript(cached)
	statsAfterWarm := cached.CacheStats()

	if first != cold {
		t.Errorf("cache-enabled cold pass diverges from uncached run:\n--- uncached ---\n%s--- cached ---\n%s", cold, first)
	}
	if warm != cold {
		t.Errorf("warm pass diverges from uncached run:\n--- uncached ---\n%s--- warm ---\n%s", cold, warm)
	}
	if statsAfterWarm.Hits <= statsAfterFirst.Hits {
		t.Errorf("warm pass did not hit the cache: first=%+v warm=%+v", statsAfterFirst, statsAfterWarm)
	}
	// The first pass itself re-deploys an identical module after a
	// kill, so even it must see some hits.
	if statsAfterFirst.Hits == 0 {
		t.Errorf("redeploy within first pass missed the cache: %+v", statsAfterFirst)
	}
}

// TestParallelAdmissionScriptDifferential runs the scripted sequence
// side by side through an uncached controller and cached ones whose
// capacity ranges from a single entry (every lookup after the next
// store is an eviction victim) to the default. Every cached transcript,
// cold pass and warm pass alike, must match the uncached one byte for
// byte: eviction order can cost hits, never change a verdict.
func TestParallelAdmissionScriptDifferential(t *testing.T) {
	base := admissionScript(newDifferentialController(t, -1))
	for _, size := range []int{1, 4, 0} {
		c := newDifferentialController(t, size)
		if got := admissionScript(c); got != base {
			t.Errorf("cache=%d cold pass diverges from uncached:\n--- uncached ---\n%s--- cached ---\n%s", size, base, got)
		}
		if got := admissionScript(c); got != base {
			t.Errorf("cache=%d warm pass diverges from uncached:\n--- uncached ---\n%s--- cached ---\n%s", size, base, got)
		}
		// The tiny caches must actually evict, the default one must hit,
		// or the variant proves nothing.
		if s := c.CacheStats(); (size > 0 && s.Evictions == 0) || (size == 0 && s.Hits == 0) {
			t.Errorf("cache=%d: variant not exercised: %+v", size, s)
		}
	}
}

// TestAdmissionCacheRejectionReasonsStable pins the property the
// differential transcript relies on for refusals: a cached security
// verdict reproduces the rejection reason text exactly.
func TestAdmissionCacheRejectionReasonsStable(t *testing.T) {
	c := newDifferentialController(t, 0)
	req := Request{
		Tenant: "mallory", ModuleName: "spoof", Trust: security.ThirdParty,
		Config: spoofConfig, Whitelist: []string{"192.0.2.1"},
	}
	_, err1 := c.Deploy(req)
	if err1 == nil {
		t.Fatal("spoofing module accepted")
	}
	hits := c.CacheStats().Hits
	_, err2 := c.Deploy(req)
	if err2 == nil {
		t.Fatal("spoofing module accepted on retry")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("rejection text changed:\ncold: %s\nwarm: %s", err1, err2)
	}
	if c.CacheStats().Hits <= hits {
		t.Errorf("retry did not use the cache: %+v", c.CacheStats())
	}
}
