package elements

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/flowspec"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("StatefulFirewall", func() click.Element { return &StatefulFirewall{} })
	click.Register("FlowMeter", func() click.Element { return &FlowMeter{} })
	click.Register("ChangeEnforcer", func() click.Element { return &ChangeEnforcer{} })
}

// StatefulFirewall is the firewall of the paper's Figs. 1-2: outbound
// traffic matching the policy is forwarded and its flow recorded;
// inbound traffic passes only if it belongs to a recorded flow.
//
//	StatefulFirewall(allow udp)
//
// Input/output port 0 is the outbound direction, port 1 inbound.
// Symbolically, flow state is pushed into the packet itself via the
// fw_tag field, exactly as Fig. 2 shows, so SymNet-style execution
// stays oblivious to flow arrival order.
type StatefulFirewall struct {
	click.Base
	policy *flowspec.Spec
	flows  map[packet.FiveTuple]int64
	// TimeoutNS expires idle flows (0 = never).
	TimeoutNS int64
	Blocked   uint64
}

// Class implements click.Element.
func (e *StatefulFirewall) Class() string { return "StatefulFirewall" }

// Configure implements click.Element.
func (e *StatefulFirewall) Configure(args []string) error {
	e.flows = make(map[packet.FiveTuple]int64)
	e.policy = flowspec.MatchAll()
	for _, a := range args {
		f := strings.Fields(a)
		if len(f) == 0 {
			continue
		}
		switch strings.ToLower(f[0]) {
		case "allow":
			spec, err := flowspec.Parse(strings.Join(f[1:], " "))
			if err != nil {
				return fmt.Errorf("StatefulFirewall: %v", err)
			}
			e.policy = spec
		case "timeout":
			if len(f) != 2 {
				return fmt.Errorf("StatefulFirewall: timeout wants seconds")
			}
			sec, err := strconv.ParseFloat(f[1], 64)
			if err != nil || sec < 0 {
				return fmt.Errorf("StatefulFirewall: bad timeout %q", f[1])
			}
			e.TimeoutNS = int64(sec * 1e9)
		default:
			return fmt.Errorf("StatefulFirewall: unknown option %q", a)
		}
	}
	return nil
}

// InPorts implements click.Element.
func (e *StatefulFirewall) InPorts() int { return 2 }

// OutPorts implements click.Element.
func (e *StatefulFirewall) OutPorts() int { return 2 }

// ActiveFlows returns the number of tracked flows.
func (e *StatefulFirewall) ActiveFlows() int { return len(e.flows) }

// Step implements click.Element: blocked packets are counted and
// dropped.
func (e *StatefulFirewall) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	now := env.Now()
	if port == 0 {
		// Outbound: policy check, then record the flow.
		if !e.policy.Match(p) {
			e.Blocked++
			return click.Drop(click.DropFilter)
		}
		e.flows[p.Tuple()] = now
		p.FlowTag = 1
		return 0
	}
	// Inbound: only related response traffic.
	t, ok := e.flows[p.Tuple().Reverse()]
	if !ok || (e.TimeoutNS > 0 && now-t > e.TimeoutNS) {
		if ok {
			delete(e.flows, p.Tuple().Reverse())
		}
		e.Blocked++
		return click.Drop(click.DropFilter)
	}
	e.flows[p.Tuple().Reverse()] = now
	return 1
}

// LastSeen reports when the given (forward-direction) tuple was last
// refreshed, for state introspection in tests.
func (e *StatefulFirewall) LastSeen(t packet.FiveTuple) (int64, bool) {
	ts, ok := e.flows[t]
	return ts, ok
}

// Sym implements symexec.Model, mirroring the paper's Fig. 2:
// outbound flows matching the policy are tagged; inbound flows pass
// only when tagged.
func (e *StatefulFirewall) Sym(port int, s *symexec.State) []symexec.Transition {
	if port == 0 {
		out := e.policy.Refine(s)
		trs := make([]symexec.Transition, 0, len(out))
		for _, st := range out {
			st.Assign(symexec.FieldFWTag, symexec.Const(1))
			trs = append(trs, symexec.Transition{Port: 0, S: st})
		}
		return trs
	}
	if !s.Constrain(symexec.FieldFWTag, symexec.Single(1)) {
		return nil
	}
	return []symexec.Transition{{Port: 1, S: s}}
}

// flowStats aggregates one flow's counters.
type flowStats struct {
	Packets uint64
	Bytes   uint64
	First   int64
	Last    int64
}

// FlowMeter passively accounts per-flow packets and bytes (the flow
// meter row of Table 1 — read-only, hence safe for any requester).
type FlowMeter struct {
	click.Base
	stats map[packet.FiveTuple]*flowStats
}

// Class implements click.Element.
func (e *FlowMeter) Class() string { return "FlowMeter" }

// Configure implements click.Element.
func (e *FlowMeter) Configure(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("FlowMeter: takes no arguments")
	}
	e.stats = make(map[packet.FiveTuple]*flowStats)
	return nil
}

// InPorts implements click.Element.
func (e *FlowMeter) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *FlowMeter) OutPorts() int { return 1 }

// Flows returns the number of distinct flows observed.
func (e *FlowMeter) Flows() int { return len(e.stats) }

// Stats returns the counters for a flow, or nil.
func (e *FlowMeter) Stats(t packet.FiveTuple) (packets, bytes uint64, ok bool) {
	st, found := e.stats[t]
	if !found {
		return 0, 0, false
	}
	return st.Packets, st.Bytes, true
}

// Step implements click.Element.
func (e *FlowMeter) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	now := env.Now()
	st := e.stats[p.Tuple()]
	if st == nil {
		st = &flowStats{First: now}
		e.stats[p.Tuple()] = st
	}
	st.Packets++
	st.Bytes += uint64(p.Len())
	st.Last = now
	return 0
}

// Sym implements symexec.Model: pure observation.
func (e *FlowMeter) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}

// ChangeEnforcer is the In-Net sandboxing element (§4.4, §7.2). It
// wraps a processing module like a stateful firewall: traffic from
// the outside world to the module always passes (input 0 → output 0);
// traffic from the module to the world (input 1 → output 1) passes
// only if it is response traffic of a recorded inbound flow — the
// implicit authorization rule — or its destination is whitelisted.
//
//	ChangeEnforcer(whitelist 192.0.2.1 192.0.2.2, timeout 60)
type ChangeEnforcer struct {
	click.Base
	whitelist map[uint32]bool
	// inbound records remote endpoints that initiated traffic to the
	// module, keyed by remote address, valued by last-seen time.
	inbound map[uint32]int64
	// TimeoutNS revokes implicit authorization after idleness
	// (default 60s) — the paper's §7 notes real firewalls do this.
	TimeoutNS int64
	Blocked   uint64
}

// Class implements click.Element.
func (e *ChangeEnforcer) Class() string { return "ChangeEnforcer" }

// Configure implements click.Element.
func (e *ChangeEnforcer) Configure(args []string) error {
	e.whitelist = make(map[uint32]bool)
	e.inbound = make(map[uint32]int64)
	e.TimeoutNS = int64(60 * 1e9)
	for _, a := range args {
		f := strings.Fields(a)
		if len(f) == 0 {
			continue
		}
		switch strings.ToLower(f[0]) {
		case "whitelist":
			for _, addr := range f[1:] {
				ip, err := packet.ParseIP(addr)
				if err != nil {
					return fmt.Errorf("ChangeEnforcer: %v", err)
				}
				e.whitelist[ip] = true
			}
		case "timeout":
			if len(f) != 2 {
				return fmt.Errorf("ChangeEnforcer: timeout wants seconds")
			}
			sec, err := strconv.ParseFloat(f[1], 64)
			if err != nil || sec <= 0 {
				return fmt.Errorf("ChangeEnforcer: bad timeout %q", f[1])
			}
			e.TimeoutNS = int64(sec * 1e9)
		default:
			return fmt.Errorf("ChangeEnforcer: unknown option %q", a)
		}
	}
	return nil
}

// Whitelist returns the configured whitelist addresses.
func (e *ChangeEnforcer) Whitelist() []uint32 {
	out := make([]uint32, 0, len(e.whitelist))
	for ip := range e.whitelist {
		out = append(out, ip)
	}
	return out
}

// InPorts implements click.Element.
func (e *ChangeEnforcer) InPorts() int { return 2 }

// OutPorts implements click.Element.
func (e *ChangeEnforcer) OutPorts() int { return 2 }

// Step implements click.Element: admitted packets leave on the output
// numbered like their input; blocked ones are counted and dropped.
func (e *ChangeEnforcer) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	if port == 0 {
		// Toward the module: record the remote source as implicitly
		// authorized, then pass.
		e.inbound[p.SrcIP] = env.Now()
		return 0
	}
	// From the module: whitelist or implicit authorization.
	if e.whitelist[p.DstIP] {
		return click.Verdict(port)
	}
	t, ok := e.inbound[p.DstIP]
	if !ok || env.Now()-t > e.TimeoutNS {
		if ok {
			delete(e.inbound, p.DstIP)
		}
		e.Blocked++
		return click.Drop(click.DropFilter)
	}
	return click.Verdict(port)
}

// Sym implements symexec.Model. Implicit authorization is pushed into
// the flow: the inbound direction aliases a synthetic field to the
// source variable; the outbound direction passes flows whose
// destination is whitelisted or aliases that field.
func (e *ChangeEnforcer) Sym(port int, s *symexec.State) []symexec.Transition {
	const authField = symexec.Field("ce_auth_src")
	if port == 0 {
		s.Assign(authField, s.Get(symexec.FieldSrcIP))
		return []symexec.Transition{{Port: 0, S: s}}
	}
	var out []symexec.Transition
	if s.SameVar(symexec.FieldDstIP, authField) {
		return []symexec.Transition{{Port: 1, S: s}}
	}
	wl := symexec.Empty
	for ip := range e.whitelist {
		wl = wl.Union(symexec.Single(uint64(ip)))
	}
	if !wl.IsEmpty() {
		m := s.Clone()
		if m.Constrain(symexec.FieldDstIP, wl) {
			out = append(out, symexec.Transition{Port: 1, S: m})
		}
	}
	return out
}
