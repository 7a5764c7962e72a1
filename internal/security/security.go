// Package security implements the In-Net security rules (paper §2.1,
// §4.4, §7): anti-spoofing and "default-off" destination
// authorization, checked statically by symbolic execution of the
// processing module and enforced at three trust levels:
//
//   - Third parties may only send traffic to destinations that
//     explicitly agreed (a per-client whitelist) or implicitly agreed
//     (reply traffic to a host that contacted the module).
//   - The operator's own customers (clients) may send anywhere, but
//     are still subject to anti-spoofing.
//   - The operator's own modules are fully trusted; static analysis
//     only informs correctness.
//
// The verdicts mirror §4.4: a module is Safe (deploy as-is),
// NeedsSandbox (wrap in a ChangeEnforcer because conformance depends
// on runtime values), or Rejected (it provably violates the rules, or
// it demands transparent interposition the requester may not have).
package security

import (
	"fmt"
	"time"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
)

// TrustClass is who is asking for the deployment (Table 1 columns).
type TrustClass int

// Trust classes.
const (
	ThirdParty TrustClass = iota
	Client
	Operator
)

func (t TrustClass) String() string {
	switch t {
	case ThirdParty:
		return "third-party"
	case Client:
		return "client"
	case Operator:
		return "operator"
	default:
		return "unknown"
	}
}

// Verdict is the outcome of the security check.
type Verdict int

// Verdicts.
const (
	// Safe: deploy without runtime enforcement.
	Safe Verdict = iota
	// NeedsSandbox: deploy wrapped in a ChangeEnforcer (§4.4).
	NeedsSandbox
	// Rejected: provably violates the security rules.
	Rejected
)

func (v Verdict) String() string {
	switch v {
	case Safe:
		return "safe"
	case NeedsSandbox:
		return "needs-sandbox"
	case Rejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Conformance classifies one egress flow's destination.
type Conformance int

// Per-flow conformance values.
const (
	// Always: the destination is provably authorized on every
	// concrete instantiation of this flow.
	Always Conformance = iota
	// Sometimes: authorization depends on runtime values.
	Sometimes
	// Never: the destination is provably unauthorized.
	Never
)

func (c Conformance) String() string {
	switch c {
	case Always:
		return "always"
	case Sometimes:
		return "sometimes"
	case Never:
		return "never"
	default:
		return "unknown"
	}
}

// Input describes one deployment to check.
type Input struct {
	// ModuleID names the module (element nodes get this prefix).
	ModuleID string
	// Module is the built Click configuration. Nil means an opaque
	// x86 VM stock module (always sandboxed for non-operators).
	Module *click.Router
	// Addr is the IP address the controller assigned to the module.
	Addr uint32
	// Trust is the requester's class.
	Trust TrustClass
	// Whitelist is the requester's explicitly-authorized destination
	// set (§2.1: "the user will keep its network operator updated
	// with a number of addresses that he owns and uses").
	Whitelist []uint32
	// Transparent is set when the deployment requests interposition
	// on traffic NOT addressed to the module (routers, NATs, DPI,
	// transparent proxies). Only the operator may interpose.
	Transparent bool
	// BanConnectionlessReplies implements the §7 amplification-attack
	// mitigation: implicit authorization can be forged by spoofing a
	// victim's source address on connectionless traffic (the DNS
	// amplification pattern), so under this policy a reply-to-sender
	// flow only counts as authorized when it is provably TCP — "in
	// fact, operators must choose between flexibility of client
	// processing and security."
	BanConnectionlessReplies bool
	// MaxSteps / Deadline bound the symbolic exploration (see
	// symexec.Injection); exhaustion surfaces as a symexec.ErrBudget
	// error so the controller can reject instead of hang.
	MaxSteps int
	Deadline time.Time
}

// FlowFinding reports one egress flow's analysis.
type FlowFinding struct {
	ExitNode    string
	Conformance Conformance
	SpoofSafe   bool
	Detail      string
}

// Report is the full security-check result.
type Report struct {
	Verdict  Verdict
	Reasons  []string
	Findings []FlowFinding
	// Flows is the number of egress flows analyzed.
	Flows int
}

func (r *Report) addReason(format string, args ...any) {
	r.Reasons = append(r.Reasons, fmt.Sprintf(format, args...))
}

// Check statically verifies a deployment against the security rules.
func Check(in Input) (*Report, error) {
	rep := &Report{}

	// Rule 0: transparent interposition is an operator privilege —
	// tenants "can only process traffic destined to them" (§2.1).
	if in.Transparent && in.Trust != Operator {
		rep.Verdict = Rejected
		rep.addReason("%s tenants cannot interpose on traffic not addressed to their module", in.Trust)
		return rep, nil
	}

	// The operator's own modules generate traffic as they wish (§2.1).
	if in.Trust == Operator {
		rep.Verdict = Safe
		rep.addReason("operator modules are trusted; static analysis informs correctness only")
		return rep, nil
	}

	// Opaque x86 VMs cannot be analyzed: sandbox (§4.1, Table 1).
	if in.Module == nil {
		rep.Verdict = NeedsSandbox
		rep.addReason("x86 VM modules are opaque to static analysis")
		return rep, nil
	}

	net, entries, exits, err := topology.CompileStandaloneModule(in.ModuleID, in.Module)
	if err != nil {
		return nil, err
	}
	exitSet := make(map[string]bool, len(exits))
	for _, e := range exits {
		exitSet[e] = true
	}

	wl := symexec.Empty
	for _, ip := range in.Whitelist {
		wl = wl.Union(symexec.Single(uint64(ip)))
	}

	// Inject an unconstrained symbolic packet (§4.4) at every entry —
	// the FromNetfront ingress and any traffic generators — and
	// analyze all egress flows. The entry source variable feeds the
	// implicit-authorization and anti-spoofing rules. The platform
	// only delivers traffic addressed to the module, so ip_dst is
	// constrained (not rewritten) to the module address.
	var nAlways, nSometimes, nNever, nSpoof int
	for _, entry := range entries {
		init := symexec.NewState()
		srcVar, _ := init.Get(symexec.FieldSrcIP).IsVar()
		if !init.Constrain(symexec.FieldDstIP, symexec.Single(uint64(in.Addr))) {
			return nil, fmt.Errorf("security: module address constraint unsatisfiable")
		}
		res, err := net.Run(symexec.Injection{
			Node: entry, State: init,
			MaxSteps: in.MaxSteps, Deadline: in.Deadline,
		})
		if err != nil {
			return nil, err
		}
		if res.Truncated {
			rep.Verdict = NeedsSandbox
			rep.addReason("symbolic execution truncated; conformance undecidable")
			return rep, nil
		}
		for _, eg := range res.Egress {
			if !exitSet[eg.Node] {
				continue // dead branch of an element, not module egress
			}
			f := analyzeFlow(eg, srcVar, uint64(in.Addr), wl, in.Trust, in.BanConnectionlessReplies)
			rep.Findings = append(rep.Findings, f)
			rep.Flows++
			if !f.SpoofSafe {
				nSpoof++
			}
			switch f.Conformance {
			case Always:
				nAlways++
			case Sometimes:
				nSometimes++
			case Never:
				nNever++
			}
		}
	}

	// Aggregate (§4.4): spoofing is never tolerated; all-nonconforming
	// modules are refused; mixed or runtime-dependent conformance is
	// sandboxed; otherwise the module is safe.
	switch {
	case nSpoof > 0:
		rep.Verdict = Rejected
		rep.addReason("%d egress flow(s) can spoof the source address", nSpoof)
	case rep.Flows == 0:
		rep.Verdict = Safe
		rep.addReason("module generates no egress traffic")
	case nNever == rep.Flows:
		rep.Verdict = Rejected
		rep.addReason("all egress traffic is unauthorized")
	case nSometimes > 0 || nNever > 0:
		rep.Verdict = NeedsSandbox
		rep.addReason("%d flow(s) conform only for some runtime values", nSometimes+nNever)
	default:
		rep.Verdict = Safe
		rep.addReason("every egress flow is provably authorized")
	}
	return rep, nil
}

// analyzeFlow classifies one egress flow.
func analyzeFlow(eg symexec.Egress, entrySrcVar symexec.VarID, addr uint64, wl symexec.IntervalSet, trust TrustClass, banConnectionless bool) FlowFinding {
	s := eg.S
	f := FlowFinding{ExitNode: eg.Node}

	// Anti-spoofing (§2.1): the source leaving the platform is either
	// the platform-assigned address (checked on the value set, so a
	// mirrored entry-destination — constrained to the module address —
	// also qualifies) or unchanged from ingress.
	srcE := s.Get(symexec.FieldSrcIP)
	if v, ok := srcE.IsVar(); ok && v == entrySrcVar {
		f.SpoofSafe = true
	} else if v, single := s.Values(symexec.FieldSrcIP).IsSingle(); single && v == addr {
		f.SpoofSafe = true
	}
	if !f.SpoofSafe {
		f.Detail = "source address is neither the module address nor the ingress source"
	}

	// Clients may reach any destination (§2.1).
	if trust == Client {
		f.Conformance = Always
		return f
	}

	// Default-off destination authorization for third parties.
	dstE := s.Get(symexec.FieldDstIP)
	if v, ok := dstE.IsVar(); ok && v == entrySrcVar {
		// Implicit authorization: replying to the ingress source.
		if banConnectionless {
			protos := s.Values(symexec.FieldProto)
			if !protos.SubsetOf(symexec.Single(uint64(packet.ProtoTCP))) {
				// A spoofed connectionless packet could forge this
				// authorization (§7's amplification caveat).
				f.Conformance = Sometimes
				f.Detail = appendDetail(f.Detail,
					"reply-to-sender over a connectionless protocol; spoofable (amplification policy)")
				return f
			}
		}
		f.Conformance = Always
		f.Detail = appendDetail(f.Detail, "destination bound to ingress source (implicit authorization)")
		return f
	}
	vals := s.Values(symexec.FieldDstIP)
	switch {
	case !wl.IsEmpty() && vals.SubsetOf(wl):
		f.Conformance = Always
		f.Detail = appendDetail(f.Detail, "destination within the explicit whitelist")
	case !vals.Overlaps(wl):
		f.Conformance = Never
		f.Detail = appendDetail(f.Detail, "destination can never be authorized")
	default:
		f.Conformance = Sometimes
		f.Detail = appendDetail(f.Detail, "destination authorized only for some runtime values")
	}
	return f
}

func appendDetail(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "; " + extra
}
