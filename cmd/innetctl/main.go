// Command innetctl is the tenant-side CLI for the In-Net controller
// (paper §4.3 "client configuration"): it submits processing-module
// deployment requests, lists deployments and kills modules.
//
//	innetctl -s http://127.0.0.1:8640 deploy \
//	    -tenant alice -name Batcher -trust client \
//	    -config batcher.click -requirements batcher.reach
//	innetctl list
//	innetctl kill pm-1
//	innetctl classes
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
)

func main() {
	server := flag.String("s", envOr("INNET_SERVER", "http://127.0.0.1:8640"), "controller base URL")
	retries := flag.Int("retries", 3, "retry transient errors (5xx gateway, connection refused) this many times")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond,
		"first retry backoff; doubles per attempt with jitter")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	client := api.NewClient(*server)
	client.Retries = *retries
	client.RetryBase = *retryBase
	var err error
	switch args[0] {
	case "deploy":
		err = deploy(client, args[1:])
	case "list":
		err = list(client)
	case "kill":
		err = kill(client, args[1:])
	case "classes":
		err = classes(client)
	case "query":
		err = query(client, args[1:])
	case "inject":
		err = inject(client, args[1:])
	case "health":
		err = health(client)
	case "stats":
		err = stats(client, args[1:])
	case "trace":
		err = trace(client, args[1:])
	case "pathtrace":
		err = pathtrace(client, args[1:])
	case "events":
		err = events(client, args[1:])
	default:
		fmt.Fprintf(os.Stderr, "innetctl: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "innetctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: innetctl [-s URL] [-retries N] [-retry-base D] <command> [args]

commands:
  deploy -f REQUEST_FILE [-tenant T]
  deploy -tenant T -name N -trust {third-party|client|operator}
         [-config FILE | -stock NAME] [-requirements FILE]
         [-whitelist ip,ip,...] [-transparent]
  list
  kill <id>
  classes
  query '<reach statement>'
  inject -dst IP [-src IP] [-proto udp|tcp|icmp] [-sport N] [-dport N]
         [-payload S] [-count N]      (innetd -simulate mode)
  health
  stats [-raw]                        (operator metrics; -raw dumps the
                                       full Prometheus exposition)
  trace <module-id-or-name> | trace -n K
                                      (admission traces, stage by stage)
  pathtrace <module-id-or-name> [-n K]
                                      (sampled per-flow dataplane path
                                       traces, hop by hop)
  events [-n K]                       (flight-recorder fault events,
                                       newest first)
`)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func deploy(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	var (
		file        = fs.String("f", "", "request file (module + config + requirements in one document)")
		tenant      = fs.String("tenant", "", "tenant name")
		name        = fs.String("name", "", "module name")
		trust       = fs.String("trust", "third-party", "trust class")
		configFile  = fs.String("config", "", "Click configuration file")
		stock       = fs.String("stock", "", "stock module name")
		reqFile     = fs.String("requirements", "", "requirements file (reach statements)")
		whitelist   = fs.String("whitelist", "", "comma-separated authorized destinations")
		transparent = fs.Bool("transparent", false, "request transparent interposition (operator only)")
		traceEvery  = fs.Int("trace-every", 0,
			"per-flow path-trace sampling for this module: trace one flow in every N (0 = platform default, negative = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		parsed, err := controller.ParseRequestFile(string(data))
		if err != nil {
			return err
		}
		if *tenant != "" {
			parsed.Tenant = *tenant
		}
		dep, err := c.Deploy(api.DeployRequest{
			Tenant:       parsed.Tenant,
			ModuleName:   parsed.ModuleName,
			Config:       parsed.Config,
			Stock:        parsed.Stock,
			Requirements: parsed.Requirements,
			Trust:        api.TrustName(parsed.Trust),
			Whitelist:    parsed.Whitelist,
			Transparent:  parsed.Transparent,
			TraceEvery:   *traceEvery,
		})
		if err != nil {
			return err
		}
		fmt.Printf("deployed %s on %s at %s (sandboxed=%v, compile %.2f ms, check %.2f ms)\n",
			dep.ID, dep.Platform, dep.Addr, dep.Sandboxed, dep.CompileMS, dep.CheckMS)
		return nil
	}
	req := api.DeployRequest{
		Tenant:      *tenant,
		ModuleName:  *name,
		Stock:       *stock,
		Trust:       *trust,
		Transparent: *transparent,
		TraceEvery:  *traceEvery,
	}
	if *configFile != "" {
		data, err := os.ReadFile(*configFile)
		if err != nil {
			return err
		}
		req.Config = string(data)
	}
	if *reqFile != "" {
		data, err := os.ReadFile(*reqFile)
		if err != nil {
			return err
		}
		req.Requirements = string(data)
	}
	if *whitelist != "" {
		for _, w := range strings.Split(*whitelist, ",") {
			if w = strings.TrimSpace(w); w != "" {
				req.Whitelist = append(req.Whitelist, w)
			}
		}
	}
	dep, err := c.Deploy(req)
	if err != nil {
		return err
	}
	fmt.Printf("deployed %s on %s at %s (sandboxed=%v, compile %.2f ms, check %.2f ms)\n",
		dep.ID, dep.Platform, dep.Addr, dep.Sandboxed, dep.CompileMS, dep.CheckMS)
	return nil
}

func list(c *api.Client) error {
	mods, err := c.List()
	if err != nil {
		return err
	}
	if len(mods) == 0 {
		fmt.Println("no deployments")
		return nil
	}
	fmt.Printf("%-8s %-12s %-12s %-12s %-16s %-10s %s\n", "ID", "TENANT", "MODULE", "PLATFORM", "ADDR", "STATUS", "SANDBOXED")
	for _, m := range mods {
		fmt.Printf("%-8s %-12s %-12s %-12s %-16s %-10s %v\n",
			m.ID, m.Tenant, m.ModuleName, m.Platform, m.Addr, m.Status, m.Sandboxed)
	}
	return nil
}

func health(c *api.Client) error {
	h, err := c.Health()
	if err != nil {
		return err
	}
	fmt.Printf("status: %s\n", h.Status)
	if r := h.Replication; r != nil {
		line := fmt.Sprintf("replication: %s term=%d seq=%d lag=%d peers=%d",
			r.Role, r.Term, r.Seq, r.LagRecords, r.Peers)
		if r.ClusterSize > 0 {
			line += fmt.Sprintf(" quorum=%d/%d", r.Majority, r.ClusterSize)
		}
		if r.Fenced {
			line += " FENCED"
		}
		if r.LeaderURL != "" {
			line += " leader=" + r.LeaderURL
		}
		fmt.Println(line)
		for _, p := range r.PeerDetail {
			state := "connected"
			if !p.Connected {
				state = "DISCONNECTED"
			} else if p.TermConnected != r.Term {
				state = fmt.Sprintf("connected (stale term %d)", p.TermConnected)
			}
			fmt.Printf("peer %s: acked=%d lag=%d %s\n", p.Addr, p.AckedSeq, p.Lag, state)
		}
	}
	printDropRollup(h.DropReasons)
	if cs := h.Cache; cs != nil {
		fmt.Printf("admission cache: hits=%d misses=%d entries=%d evictions=%d invalidations=%d\n",
			cs.Hits, cs.Misses, cs.Entries, cs.Evictions, cs.Invalidations)
	}
	for _, e := range h.Errors {
		fmt.Printf("error: %s\n", e)
	}
	names := make([]string, 0, len(h.Platforms))
	for name := range h.Platforms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		state := "up"
		if !h.Platforms[name] {
			state = "DOWN"
		}
		fmt.Printf("platform %s: %s\n", name, state)
	}
	states := make([]string, 0, len(h.Deployments))
	for st := range h.Deployments {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Printf("deployments %s: %d\n", st, h.Deployments[st])
	}
	return nil
}

// stats prints the controller's operator metrics. By default the
// Prometheus exposition is condensed to one line per series (headers
// and histogram buckets dropped); -raw dumps it verbatim for piping
// into other tooling.
func stats(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	raw := fs.Bool("raw", false, "print the full Prometheus text exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	text, err := c.Metrics()
	if err != nil {
		return err
	}
	if *raw {
		fmt.Print(text)
		return nil
	}
	// The unified drop rollup leads: it is the one table an operator
	// asks for first when packets go missing.
	if h, herr := c.Health(); herr == nil {
		printDropRollup(h.DropReasons)
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "_bucket{") {
			continue // histogram summary lives in _sum/_count
		}
		fmt.Println(line)
	}
	return nil
}

// trace prints admission traces stage by stage. With an argument it
// shows the traces whose module name or deployment ID matches; with
// -n K it shows the K most recent.
func trace(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 0, "show the N most recent traces instead of filtering by module")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := ""
	if fs.NArg() > 0 {
		want = fs.Arg(0)
	}
	if want == "" && *n <= 0 {
		return fmt.Errorf("trace wants a module id/name, or -n K for the K most recent")
	}
	fetch := 0 // 0 = whole ring; we filter client-side
	if want == "" {
		fetch = *n
	}
	traces, err := c.Traces(fetch)
	if err != nil {
		return err
	}
	shown := 0
	for _, tr := range traces {
		if want != "" && tr.ID != want && tr.Ref != want {
			continue
		}
		shown++
		ref := ""
		if tr.Ref != "" {
			ref = " -> " + tr.Ref
		}
		fmt.Printf("%s %s%s: %s in %v (at %s)\n",
			tr.Kind, tr.ID, ref, tr.Verdict, tr.Total, tr.Start.Format(time.RFC3339))
		for _, st := range tr.Stages {
			detail := ""
			if st.Detail != "" {
				detail = "  (" + st.Detail + ")"
			}
			fmt.Printf("  %-18s %12v%s\n", st.Name, st.Duration, detail)
		}
	}
	if shown == 0 {
		if want != "" {
			return fmt.Errorf("no trace for %q in the server's ring (deploys before the last %d admissions have aged out)", want, len(traces))
		}
		fmt.Println("no traces recorded yet")
	}
	return nil
}

// printDropRollup renders the unified site → reason → count drop
// attribution (zero counts skipped; nothing printed when the daemon
// has no hub wired).
func printDropRollup(rollup map[string]map[string]uint64) {
	sites := make([]string, 0, len(rollup))
	for site := range rollup {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		reasons := make([]string, 0, len(rollup[site]))
		for r := range rollup[site] {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			if n := rollup[site][r]; n > 0 {
				fmt.Printf("drops %s/%s: %d\n", site, r, n)
			}
		}
	}
}

// pathtrace prints sampled per-flow dataplane path traces for one
// module, hop by hop.
func pathtrace(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("pathtrace", flag.ExitOnError)
	n := fs.Int("n", -1, "how many traces to fetch (0 = all retained)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("pathtrace wants exactly one module id or name")
	}
	res, err := c.PathTraces(fs.Arg(0), *n)
	if err != nil {
		return err
	}
	if len(res.Traces) == 0 {
		fmt.Printf("no path traces for %s at %s yet (is the module's sampling rate on? see -trace-every / trace_every)\n",
			res.Module, res.Addr)
		return nil
	}
	for _, tr := range res.Traces {
		fmt.Printf("trace %d flow=%x (at %s)\n",
			tr.Seq, tr.FlowHash, tr.Time.Format(time.RFC3339))
		for _, h := range tr.Hops {
			fmt.Printf("  %-18s in=%-3s out=%-3s %s\n",
				h.Elem, port(h.InPort), port(h.OutPort), h.Verdict)
		}
	}
	return nil
}

// port renders a port number, with -1 (not applicable) as "-".
func port(p int) string {
	if p < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", p)
}

// events prints the flight recorder, newest first.
func events(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("events", flag.ExitOnError)
	n := fs.Int("n", -1, "how many events to fetch (0 = the whole ring)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	evs, err := c.Events(*n)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		fmt.Println("no events recorded")
		return nil
	}
	for _, e := range evs {
		line := fmt.Sprintf("%6d  %s  %-18s %s", e.Seq, e.Time.Format(time.RFC3339), e.Type, e.Source)
		if e.Ref != "" {
			line += " " + e.Ref
		}
		if e.Detail != "" {
			line += "  (" + e.Detail + ")"
		}
		fmt.Println(line)
	}
	return nil
}

func kill(c *api.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("kill wants exactly one module id")
	}
	if err := c.Kill(args[0]); err != nil {
		return err
	}
	fmt.Printf("killed %s\n", args[0])
	return nil
}

func query(c *api.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("query wants one reach statement argument")
	}
	res, err := c.Query(args[0])
	if err != nil {
		return err
	}
	if res.Satisfied {
		fmt.Printf("satisfied (compile %.2f ms, check %.2f ms)\n", res.CompileMS, res.CheckMS)
		return nil
	}
	fmt.Printf("NOT satisfied: %s\n", res.Reason)
	return nil
}

func inject(c *api.Client, args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	var (
		dst     = fs.String("dst", "", "module address (required)")
		src     = fs.String("src", "", "source address")
		proto   = fs.String("proto", "udp", "protocol")
		sport   = fs.Uint("sport", 4000, "source port")
		dport   = fs.Uint("dport", 1500, "destination port")
		payload = fs.String("payload", "hello", "payload text")
		count   = fs.Int("count", 1, "packets to send")
		pcapOut = fs.String("pcap", "", "also write the emitted packets to a pcap file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := c.Inject(api.InjectRequest{
		Dst: *dst, Src: *src, Proto: *proto,
		SrcPort: uint16(*sport), DstPort: uint16(*dport),
		Payload: *payload, Count: *count,
	})
	if err != nil {
		return err
	}
	fmt.Printf("sent %d packet(s) via %s (vm booted: %v); module emitted %d:\n",
		res.Sent, res.Platform, res.BootedVM, len(res.Emitted))
	for _, e := range res.Emitted {
		fmt.Printf("  %s %s:%d -> %s:%d payload=%q latency=%.1fms\n",
			e.Proto, e.Src, e.SrcPort, e.Dst, e.DstPort, e.Payload, e.LatencyMS)
	}
	if *pcapOut != "" {
		if err := writePcap(*pcapOut, res.Emitted); err != nil {
			return err
		}
		fmt.Printf("wrote %d packet(s) to %s\n", len(res.Emitted), *pcapOut)
	}
	return nil
}

// writePcap renders emitted packets as a LINKTYPE_RAW capture.
func writePcap(path string, emitted []api.EmittedPacket) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := packet.NewPcapWriter(f, 0)
	if err != nil {
		return err
	}
	for _, e := range emitted {
		src, err := packet.ParseIP(e.Src)
		if err != nil {
			return err
		}
		dst, err := packet.ParseIP(e.Dst)
		if err != nil {
			return err
		}
		var proto packet.Proto
		switch e.Proto {
		case "tcp":
			proto = packet.ProtoTCP
		case "icmp":
			proto = packet.ProtoICMP
		default:
			proto = packet.ProtoUDP
		}
		pk := &packet.Packet{
			Protocol: proto,
			SrcIP:    src, DstIP: dst,
			SrcPort: e.SrcPort, DstPort: e.DstPort,
			TTL:       64,
			Payload:   []byte(e.Payload),
			Timestamp: int64(e.LatencyMS * 1e6),
		}
		if err := w.WritePacket(pk); err != nil {
			return err
		}
	}
	return nil
}

func classes(c *api.Client) error {
	cs, err := c.Classes()
	if err != nil {
		return err
	}
	for _, cl := range cs {
		fmt.Println(cl)
	}
	return nil
}
