package controller

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
)

// Delta invalidation must be an invisible optimization: a controller
// validating cached placement/query entries against per-platform
// dependency digests has to hand out exactly the verdicts of one that
// caches nothing. TestQuickIncrementalEquivalence drives seeded random
// mutation sequences — deploys, kills, outages, recoveries, failovers,
// queries — through a cached and an uncached controller in lockstep
// and diffs the full transcripts; the quick seed in a failure report
// replays the exact sequence. TestDeltaSurvivesOutage pins the
// headline win directly: a platform health flip leaves warm entries
// hot.

func TestDeltaSurvivesOutage(t *testing.T) {
	c := newDifferentialController(t, 0)
	if _, err := c.Deploy(batcherRequest()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(batcherRequirements); err != nil { // populate
		t.Fatal(err)
	}
	// A health flip mutates no deployed module set, so the entry's
	// dependency tokens still hold.
	c.MarkPlatformDown("Platform1")
	before := c.CacheStats().Hits
	if _, err := c.Query(batcherRequirements); err != nil {
		t.Fatal(err)
	}
	if c.CacheStats().Hits == before {
		t.Error("delta invalidation re-verified a query no mutation touched")
	}
}

// webMirrorConfig is the third-party web mirror mutationScript deploys
// as "mirror".
const webMirrorConfig = `
in :: FromNetfront();
f :: IPFilter(allow tcp dst port 80);
mir :: IPMirror();
out :: ToNetfront();
in -> f -> mir -> out;
`

// mutationScript drives one seeded op sequence against a controller
// and renders every outcome (IDs excluded: the counter is shared
// across both controllers' histories by design, but op outcomes are
// keyed by name).
func mutationScript(c *Controller, seed uint64, ops int) string {
	return mutationScriptEach(c, seed, ops, nil)
}

// mutationScriptEach is mutationScript calling after (when non-nil)
// once each op has run.
func mutationScriptEach(c *Controller, seed uint64, ops int, after func(op int)) string {
	return mutationScriptOps(c, seed, ops, false, after)
}

// mutationScriptOps is mutationScriptEach that, with healthOnly, also
// draws two ops the plain stream never takes: a platform outage with no
// failover, which leaves its deployments degraded, and a recovery of a
// platform that hosts degraded deployments, with no retry. Without
// healthOnly it draws exactly mutationScriptEach's stream.
func mutationScriptOps(c *Controller, seed uint64, ops int, healthOnly bool, after func(op int)) string {
	kinds := 6
	if healthOnly {
		kinds = 8
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	platforms := []string{"Platform1", "Platform2", "Platform3"}
	names := []string{"Batcher", "mirror", "spoof"}
	queries := []string{
		batcherRequirements,
		operatorHTTPPolicy,
		"reach from internet tcp -> Batcher:dst:0 -> client",
	}
	request := func(name string) Request {
		switch name {
		case "Batcher":
			return batcherRequest()
		case "mirror":
			return Request{
				Tenant: "bob", ModuleName: "mirror", Trust: security.ThirdParty,
				Config: webMirrorConfig,
			}
		default:
			return Request{
				Tenant: "mallory", ModuleName: "spoof", Trust: security.ThirdParty,
				Config: spoofConfig, Whitelist: []string{"192.0.2.1"},
			}
		}
	}

	var b strings.Builder
	byName := func(name string) *Deployment {
		for _, d := range c.Deployments() {
			if d.ModuleName == name {
				return d
			}
		}
		return nil
	}
	for i := 0; i < ops; i++ {
		switch rng.Intn(kinds) {
		case 0, 1: // deploy (weighted: mutations need material)
			name := names[rng.Intn(len(names))]
			dep, err := c.Deploy(request(name))
			if err != nil {
				fmt.Fprintf(&b, "%d deploy %s: err %v\n", i, name, err)
				break
			}
			fmt.Fprintf(&b, "%d deploy %s: ok platform=%s addr=%s sandboxed=%t verdict=%v reasons=%q\n",
				i, name, dep.Platform, packet.IPString(dep.Addr), dep.Sandboxed,
				dep.Security.Verdict, dep.Security.Reasons)
		case 2: // kill
			name := names[rng.Intn(len(names))]
			if d := byName(name); d != nil {
				fmt.Fprintf(&b, "%d kill %s: %v\n", i, name, c.Kill(d.ID))
			} else {
				fmt.Fprintf(&b, "%d kill %s: absent\n", i, name)
			}
		case 3: // outage + failover
			pf := platforms[rng.Intn(len(platforms))]
			affected := c.MarkPlatformDown(pf)
			migrated, failed := c.Failover(pf)
			fmt.Fprintf(&b, "%d down %s: affected=%d migrated=%d failed=%d\n",
				i, pf, len(affected), len(migrated), len(failed))
		case 4: // recovery
			pf := platforms[rng.Intn(len(platforms))]
			c.MarkPlatformUp(pf)
			retried := c.RetryFailed()
			fmt.Fprintf(&b, "%d up %s: retried=%d\n", i, pf, len(retried))
		case 5: // query
			q := queries[rng.Intn(len(queries))]
			res, err := c.Query(q)
			if err != nil {
				fmt.Fprintf(&b, "%d query: err %v\n", i, err)
				break
			}
			fmt.Fprintf(&b, "%d query: satisfied=%t reason=%q\n", i, res.Satisfied, res.Reason)
		case 6: // outage, no failover
			pf := platforms[rng.Intn(len(platforms))]
			fmt.Fprintf(&b, "%d down %s: affected=%d\n", i, pf, len(c.MarkPlatformDown(pf)))
		case 7: // recovery of a platform with degraded deployments, no retry
			pf := ""
			for _, d := range c.Deployments() {
				if d.Status() == StatusDegraded {
					pf = d.Platform
					break
				}
			}
			if pf == "" {
				fmt.Fprintf(&b, "%d up: nothing degraded\n", i)
				break
			}
			c.MarkPlatformUp(pf)
			fmt.Fprintf(&b, "%d up %s\n", i, pf)
		}
		if after != nil {
			after(i)
		}
	}
	// Closing census: surviving deployments with full placement state.
	for _, d := range c.Deployments() {
		fmt.Fprintf(&b, "final %s: platform=%s addr=%s status=%v sandboxed=%t\n",
			d.ModuleName, d.Platform, packet.IPString(d.Addr), d.Status(), d.Sandboxed)
	}
	return b.String()
}

func TestQuickIncrementalEquivalence(t *testing.T) {
	property := func(seed uint64) bool {
		got := mutationScript(newDifferentialController(t, 0), seed, 14)
		want := mutationScript(newDifferentialController(t, -1), seed, 14)
		if got != want {
			t.Errorf("seed %d: cached transcript diverges from uncached:\n--- uncached ---\n%s--- cached ---\n%s", seed, want, got)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(0xde17a))}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
