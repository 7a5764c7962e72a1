// Admission-cache wiring: content-addressed memoization of the
// controller's symbolic-execution verdicts (security checks and
// placement-dependent requirement/policy checks) in an LRU keyed on
// the canonicalized inputs.
//
// Key discipline — the cache must never change an admission decision:
//
//   - Security-check entries are keyed on the canonicalized deployed
//     source (after $MODULE_IP substitution), the module name (element
//     node names embed it), the assigned address, the trust class, the
//     whitelist, the transparency flag, the operator's amplification
//     policy and the step budget: every input security.Check reads.
//     They carry no dependency set — a standalone module's analysis
//     does not depend on what else is deployed.
//   - Placement-check and query entries additionally depend on the
//     compiled network snapshot. They record *which parts* of it the
//     check actually read — dependency tokens derived from the nodes
//     the symbolic runs visited and the module names the requirements
//     referenced — and a lookup revalidates only those tokens against
//     the current digest table (delta invalidation: an unrelated
//     deploy/kill/outage leaves the entry hot). Invalidation is lazy:
//     a stale lookup deletes the entry, and since tokens are
//     content-derived, deploy→kill→re-deploy returns to the prior
//     state and warm entries hit again.
//
// Cache state is never journaled and never persisted: admit/reject
// records are byte-identical whether the verdict came from the cache
// or from a cold run (the differential and chaos-regression tests
// assert this), and a restored controller simply starts cold.
package controller

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/policy"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
)

// DefaultAdmissionCache is the LRU capacity when Options.AdmissionCache
// is zero.
const DefaultAdmissionCache = 512

// hashKey renders a cache key as the SHA-256 of its length-delimited
// parts (content addressing; no part can collide into another).
func hashKey(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 21 // the length prefix and its ':'
	}
	buf := make([]byte, 0, n)
	for _, p := range parts {
		buf = append(strconv.AppendInt(buf, int64(len(p)), 10), ':')
		buf = append(buf, p...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// canonicalOrRaw canonicalizes a Click source for key purposes,
// falling back to the raw text when it does not parse (the subsequent
// cold check will reject it with a parse error; keying on raw bytes
// still caches deterministically).
func canonicalOrRaw(src string) string {
	c, err := clicklang.Canonical(src)
	if err != nil {
		return "raw\x00" + src
	}
	return c
}

// securityKey content-addresses one security.Check invocation.
func securityKey(in security.Input, src string, banConnectionless bool) string {
	wl := make([]string, len(in.Whitelist))
	for i, ip := range in.Whitelist {
		wl[i] = fmt.Sprintf("%d", ip)
	}
	sort.Strings(wl)
	return hashKey(
		"sec",
		canonicalOrRaw(src),
		in.ModuleID,
		fmt.Sprintf("%d", in.Addr),
		fmt.Sprintf("%d", in.Trust),
		strings.Join(wl, ","),
		fmt.Sprintf("%t", in.Transparent),
		fmt.Sprintf("%t", banConnectionless),
		fmt.Sprintf("%d", in.MaxSteps),
	)
}

// placementKey content-addresses one checkPlacementLocked invocation.
func placementKey(platformName string, addr uint32, deploySrc, requirements string, steps int) string {
	return hashKey(
		"place",
		platformName,
		fmt.Sprintf("%d", addr),
		canonicalOrRaw(deploySrc),
		requirements,
		fmt.Sprintf("%d", steps),
	)
}

// queryKey content-addresses one Query invocation.
func queryKey(requirements string, steps int) string {
	return hashKey("query", requirements, fmt.Sprintf("%d", steps))
}

// cloneReport deep-copies a security report so cached state can never
// be aliased by callers.
func cloneReport(rep *security.Report) *security.Report {
	if rep == nil {
		return nil
	}
	c := *rep
	c.Reasons = append([]string(nil), rep.Reasons...)
	c.Findings = append([]security.FlowFinding(nil), rep.Findings...)
	return &c
}

// topologyChangedLocked marks the per-platform digest table stale.
// Call after every mutation of the deployment set or platform health.
func (c *Controller) topologyChangedLocked() {
	if !c.digestsDirty {
		// First invalidation since the last recompute: one event per
		// burst of mutations, so the recorder is not flooded.
		c.recordLocked("cache-invalidate", "topology mutation", "")
	}
	c.digestsDirty = true
}

// digestsLocked returns the dependency-token digest table for delta
// invalidation, recomputing it only after mutations.
// Tokens:
//
//   - "mod:<name>" is one live deployment's digest (Deployment.seal:
//     name, platform, address, deployed config), by module name
//     (absent names simply have no entry, which depsValid sees as
//     ""). Requirement references resolve by module name, so an
//     outcome can depend on a name's existence/content even when no
//     flow reaches its platform.
//   - "pf:<platform>" digests the sorted digests of the live modules
//     a platform hosts — everything that shapes the platform's demux
//     and element graphs. Sorted, so the digest is independent of map
//     iteration order; check outcomes are branch-order-independent, so
//     that is sound.
//
// Each deployment is digested once, when placed; a recompute only
// regroups those digests.
//
// Platform *health* is deliberately excluded: down platforms are
// skipped before any cached check runs, so an outage flip touches no
// cached placement/query entry.
func (c *Controller) digestsLocked() map[string]string {
	if !c.digestsDirty && c.digests != nil {
		return c.digests
	}
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
	c.digests = out
	c.digestsDirty = false
	return out
}

// depsValid reports whether every recorded dependency token still
// digests to its recorded value.
func depsValid(deps, cur map[string]string) bool {
	for tok, d := range deps {
		if cur[tok] != d {
			return false
		}
	}
	return true
}

// depsFor converts a check's observed footprint (visited compiled
// nodes + by-name references) into dependency tokens valued from the
// digest snapshot the check ran against. Static topology nodes
// (routers, endpoints, middlebox elements) produce no token — the
// topology is immutable for a controller's lifetime; only the
// deployment set changes.
func (c *Controller) depsFor(env *policy.CheckEnv, cur map[string]string) map[string]string {
	deps := make(map[string]string)
	for node := range env.Visited {
		base := node
		if i := strings.IndexByte(node, '/'); i >= 0 {
			base = node[:i]
		}
		if n := c.topo.Node(base); n != nil {
			if n.Kind == topology.KindPlatform {
				deps["pf:"+base] = cur["pf:"+base]
			}
			continue // static topology node
		}
		if m := env.Map.Module(base); m != nil {
			deps["pf:"+m.Platform] = cur["pf:"+m.Platform]
		}
	}
	for name := range env.RefNames {
		deps["mod:"+name] = cur["mod:"+name]
	}
	return deps
}

// CacheStats snapshots the admission cache counters (zero stats when
// caching is disabled).
func (c *Controller) CacheStats() symexec.CacheStats {
	return c.cache.Stats()
}

// MemoStats is the counter snapshot of the retired per-element
// symbolic-execution memo.
type MemoStats struct {
	Hits, Misses uint64
}

// MemoStats always returns zeros: admission has no per-element memo.
// It stays only for callers that still report memo hit ratios.
func (c *Controller) MemoStats() MemoStats {
	return MemoStats{}
}

// checkedSecurity runs the security check through the cache. Budget
// errors are never cached; verdicts (including rejections, with their
// reasons) are, so a repeated identical request settles without
// re-running the symbolic execution.
func (c *Controller) checkedSecurity(in security.Input, src string) (*security.Report, error) {
	if c.cache == nil {
		start := time.Now()
		rep, err := security.Check(in)
		c.stageLocked(StageSecurity, start, securityDetail(rep, err))
		return rep, err
	}
	key := securityKey(in, src, in.BanConnectionlessReplies)
	lstart := time.Now()
	if v, ok := c.cache.Get(key, nil); ok {
		c.stageLocked(StageCacheLookup, lstart, "security: hit")
		return cloneReport(v.(*security.Report)), nil
	}
	c.stageLocked(StageCacheLookup, lstart, "security: miss")
	start := time.Now()
	rep, err := security.Check(in)
	c.stageLocked(StageSecurity, start, securityDetail(rep, err))
	if err != nil {
		return nil, err
	}
	c.cache.Put(key, nil, cloneReport(rep))
	return rep, nil
}

// securityDetail renders a security-check outcome for a trace stage.
func securityDetail(rep *security.Report, err error) string {
	if err != nil {
		return "error"
	}
	return "verdict " + rep.Verdict.String()
}

// policyDetail renders a placement-check outcome for a trace stage.
func policyDetail(platformName, reason string, err error) string {
	switch {
	case err != nil:
		return "budget exhausted"
	case reason == "":
		return "ok: " + platformName
	default:
		return reason
	}
}

// cachedQuery consults the cache for a full Query result: the entry
// hits while its recorded dependency tokens still match cur.
func (c *Controller) cachedQuery(key string, cur map[string]string) (*QueryResult, bool) {
	v, ok := c.cache.Get(key, func(deps map[string]string) bool {
		return depsValid(deps, cur)
	})
	if !ok {
		return nil, false
	}
	r := *(v.(*QueryResult))
	return &r, true
}

// putQuery stores a Query result. The dependency values come from the
// digest snapshot (cur) the check actually ran against, so a topology
// mutation racing with an unlocked query run leaves a stale-valued
// entry that the next lookup discards — never a wrong hit.
func (c *Controller) putQuery(key string, cur map[string]string, env *policy.CheckEnv, r *QueryResult) {
	if c.cache == nil {
		return
	}
	cp := *r
	cp.Timings = Timings{} // cached verdicts cost nothing; don't replay stale timings
	c.cache.Put(key, c.depsFor(env, cur), &cp)
}
