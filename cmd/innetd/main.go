// Command innetd runs the In-Net controller as an HTTP daemon. It
// loads an operator topology (the paper's Fig. 3 example by default),
// verifies the operator policy against it, and serves the deployment
// API that innetctl (or any HTTP client) talks to:
//
//	POST   /v1/modules      deploy a processing module
//	GET    /v1/modules      list deployments
//	GET    /v1/modules/{id} inspect one deployment
//	DELETE /v1/modules/{id} kill a deployment
//	GET    /v1/classes      list available Click element classes
//	GET    /v1/metrics      Prometheus text metrics (disable with -no-telemetry)
//	GET    /v1/traces       recent admission traces as JSON
//	GET    /v1/pathtrace    sampled per-flow path traces for one module (-simulate)
//	GET    /v1/events       flight-recorder fault/transition events
//
// With -state-dir the controller is crash-safe: every deployment
// lifecycle transition is written ahead to a checksummed journal
// (compacted into snapshots), and a restarted daemon recovers its
// deployment state from the directory before serving.
//
// With -role leader|standby two daemons form a replicated pair: the
// leader streams journal frames to the standby (-peer) over a minimal
// TCP protocol (-repl-listen) and strict transitions wait for the
// standby's acknowledgement. A standby with -failover-after promotes
// itself when the leader goes silent; the deposed leader fences
// read-only and redirects clients to the -advertise URL of its
// successor. See docs/FORMATS.md §10 and DESIGN.md.
//
// Example:
//
//	innetd -listen :8640 -state-dir /var/lib/innetd \
//	  -policy 'reach from internet tcp src port 80 -> HTTPOptimizer -> client'
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/controller"
	_ "github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/journal"
	"github.com/in-net/innet/internal/replication"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/topology"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen   = flag.String("listen", "127.0.0.1:8640", "HTTP listen address")
		topoName = flag.String("topology", "fig3", "built-in operator topology: fig3 | fig1 | grown:<n>")
		topoFile = flag.String("topology-file", "", "operator topology description file (overrides -topology)")
		policy   = flag.String("policy", "", "operator reach-statement policy (must hold on the base network)")
		banUDP   = flag.Bool("ban-connectionless-replies", false,
			"sandbox third-party modules whose reply traffic can be connectionless (amplification mitigation, paper §7)")
		simulate = flag.Bool("simulate", false,
			"attach an in-process platform emulation; deployments become live and POST /v1/inject drives packets through them")
		drain = flag.Duration("drain-timeout", 10*time.Second,
			"how long to let in-flight requests finish on SIGINT/SIGTERM before exiting")
		stateDir = flag.String("state-dir", "",
			"directory for the controller's write-ahead journal and snapshots; on restart the deployment state is recovered from it (empty disables persistence)")
		fsyncPolicy = flag.String("fsync", "always",
			"journal durability: always (fsync each record) | none (leave flushing to the OS)")
		snapshotEvery = flag.Int("snapshot-every", 256,
			"compact the journal into a snapshot every N records (negative disables compaction)")
		noTelemetry = flag.Bool("no-telemetry", false,
			"disable the metrics registry and admission trace ring (GET /v1/metrics and /v1/traces answer 501)")
		traceRing = flag.Int("trace-ring", telemetry.DefaultTraceRing,
			"admission traces retained in memory for GET /v1/traces")
		debugAddr = flag.String("debug-addr", "",
			"serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables the debug listener")
		role = flag.String("role", "single",
			"replication role: single (unreplicated) | leader | standby; leader and standby require -state-dir")
		peers = flag.String("peer", "",
			"comma-separated replication addresses of the other replicas (leader ships journal frames to them)")
		replListen = flag.String("repl-listen", "",
			"replication listen address (default 127.0.0.1:8641 when -role is leader or standby; leaders listen too, so a successor can fence them)")
		advertise = flag.String("advertise", "",
			"client-facing API base URL announced to replication peers for failover redirects (default http://<-listen>)")
		failoverAfter = flag.Duration("failover-after", 0,
			"standby auto-promotion threshold: promote after this much leader silence (0 = manual promotion only)")
		ackTimeout = flag.Duration("ack-timeout", 5*time.Second,
			"how long the leader waits for standby acknowledgement of a strict record before fencing itself")
		electionTimeout = flag.Duration("election-timeout", time.Second,
			"with 3+ replicas: how long one election round waits for votes, and the base for campaign retry backoff")
		traceEvery = flag.Int("trace-every", telemetry.DefaultTraceEvery,
			"per-flow path-trace sampling: trace one flow in every N through each module's dataplane (negative disables; a module's own trace_every overrides)")
		eventRing = flag.Int("event-ring", telemetry.DefaultEventRing,
			"flight-recorder events retained in memory for GET /v1/events and postmortem dumps")
	)
	flag.Parse()

	var topo *topology.Topology
	var err error
	if *topoFile != "" {
		data, rerr := os.ReadFile(*topoFile)
		if rerr != nil {
			log.Printf("innetd: %v", rerr)
			return 1
		}
		topo, err = topology.Parse(string(data))
	} else {
		topo, err = loadTopology(*topoName)
	}
	if err != nil {
		log.Printf("innetd: %v", err)
		return 1
	}
	opts := controller.Options{BanConnectionlessReplies: *banUDP}

	replRole, err := parseRole(*role)
	if err != nil {
		log.Printf("innetd: -role: %v", err)
		return 1
	}
	if replRole != controller.RoleSingle && *stateDir == "" {
		log.Printf("innetd: -role %s requires -state-dir (replication ships the write-ahead journal)", *role)
		return 1
	}

	var store *journal.Store
	if *stateDir != "" {
		if err := checkStateDir(*stateDir); err != nil {
			log.Printf("innetd: -state-dir: %v", err)
			return 1
		}
		sync, err := journal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			log.Printf("innetd: -fsync: %v", err)
			return 1
		}
		store, err = journal.Open(*stateDir, journal.Options{Sync: sync, CompactEvery: *snapshotEvery})
		if err != nil {
			log.Printf("innetd: open state dir %s: %v", *stateDir, err)
			return 1
		}
		defer store.Close()
	}

	var ctl *controller.Controller
	var err2 error
	if store != nil {
		var rep *controller.RecoveryReport
		ctl, rep, err2 = controller.Restore(topo, *policy, opts, store.State(), nil, store)
		if err2 == nil {
			log.Printf("innetd: recovered state from %s: %d reattached, %d replaced, %d failed (seq %d, %v)",
				*stateDir, len(rep.Reattached), len(rep.Replaced), len(rep.Failed), store.Seq(), rep.Elapsed)
		}
	} else {
		ctl, err2 = controller.NewWithOptions(topo, *policy, opts)
	}
	if err2 != nil {
		log.Printf("innetd: %v", err2)
		return 1
	}
	// Telemetry is on by default: a nil registry/tracer compiles to
	// no-ops everywhere, so -no-telemetry costs exactly that.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if !*noTelemetry {
		reg = telemetry.New()
		tracer = telemetry.NewTracer(*traceRing)
		ctl.AttachTelemetry(reg, tracer)
		if store != nil {
			store.RegisterMetrics(reg)
		}
	}
	// The flight recorder and the drop-attribution hub are always on:
	// events are rare and the hub only reads counters at scrape time.
	rec := telemetry.NewRecorder(*eventRing)
	drops := telemetry.NewDrops()
	ctl.SetRecorder(rec)
	ctl.RegisterDrops(drops)
	if store != nil {
		store.SetRecorder(rec)
	}
	// A crash dumps the flight recorder next to the journal it may
	// have wedged, so the postmortem survives the process.
	defer func() {
		if r := recover(); r != nil {
			dumpPostmortem(*stateDir, rec, fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()
	var repl *replication.Node
	if replRole != controller.RoleSingle {
		listenRepl := *replListen
		if listenRepl == "" {
			listenRepl = "127.0.0.1:8641"
		}
		adv := *advertise
		if adv == "" {
			adv = "http://" + *listen
		}
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		repl, err = replication.NewNode(store, ctl, replication.Config{
			Role:            replRole,
			ListenAddr:      listenRepl,
			Peers:           peerList,
			AdvertiseURL:    adv,
			AckTimeout:      *ackTimeout,
			FailoverAfter:   *failoverAfter,
			ElectionTimeout: *electionTimeout,
			Registry:        reg,
			Rec:             rec,
			OnFence: func(reason string) {
				dumpPostmortem(*stateDir, rec, "fenced: "+reason)
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Printf("innetd: %v", err)
			return 1
		}
		// The node replaces the bare store as the controller's journal
		// sink: every strict transition now replicates synchronously.
		ctl.AttachJournal(repl)
		repl.RegisterDrops(drops)
		if err := repl.Start(); err != nil {
			log.Printf("innetd: %v", err)
			return 1
		}
		defer repl.Close()
		log.Printf("innetd: replication %s on %s, peers %v, advertising %s",
			*role, repl.Addr(), peerList, adv)
	}

	var sim *api.Simulator
	if *simulate {
		sim = api.NewSimulator(topo.Platforms())
		log.Printf("innetd: simulation mode on; POST /v1/inject to drive packets through deployed modules")
		sim.RegisterMetrics(reg)
		sim.RegisterDrops(drops)
		sim.SetRecorder(rec)
		sim.SetTraceEvery(*traceEvery)
	}
	drops.Attach(reg)
	handler := api.NewServerWithSimulator(ctl, sim)
	// Recovered deployments are live on the emulated platforms too
	// (failed ones wait for an explicit retry).
	if sim != nil {
		for _, d := range ctl.Deployments() {
			if err := sim.Err(d.ID); err != nil {
				log.Printf("innetd: install recovered %s: %v", d.ID, err)
				return 1
			}
		}
	}
	handler.AttachTelemetry(reg, tracer)
	handler.AttachObservability(drops, rec)
	if repl != nil {
		handler.AttachReplication(repl)
	}
	if store != nil {
		handler.AttachJournal(store)
	}
	log.Printf("innetd: topology %q with platforms %v", *topoName, topo.Platforms())

	if *debugAddr != "" {
		// The pprof handlers live on http.DefaultServeMux; keep them off
		// the API listener so operators can firewall them separately.
		go func() {
			log.Printf("innetd: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("innetd: debug listener: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Serve in the background; drain gracefully on SIGINT/SIGTERM so
	// in-flight deployments finish rather than dying mid-placement.
	errc := make(chan error, 1)
	go func() {
		log.Printf("innetd: listening on http://%s", *listen)
		errc <- srv.ListenAndServe()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		// The listener died on its own (port taken, fd limit, ...).
		log.Printf("innetd: %v", err)
		return 1
	case sig := <-sigc:
		log.Printf("innetd: caught %v, draining (max %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("innetd: drain incomplete: %v", err)
			return 1
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("innetd: %v", err)
			return 1
		}
		log.Printf("innetd: drained, bye")
		return 0
	}
}

// dumpPostmortem writes the flight recorder's full contents (plus the
// triggering cause) to <state-dir>/postmortem.json so the event
// sequence leading into a crash or fencing survives the process. Best
// effort: a daemon without -state-dir has nowhere durable to write.
func dumpPostmortem(dir string, rec *telemetry.Recorder, cause string) {
	if dir == "" || rec == nil {
		return
	}
	data, err := json.MarshalIndent(struct {
		Cause  string            `json:"cause"`
		Time   time.Time         `json:"time"`
		Events []telemetry.Event `json:"events"`
	}{cause, time.Now(), rec.Recent(0)}, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(dir, "postmortem.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Printf("innetd: postmortem dump: %v", err)
		return
	}
	log.Printf("innetd: wrote postmortem (%s) to %s", cause, path)
}

// checkStateDir verifies the journal directory exists, is a
// directory, and is writable — failing loudly at boot beats
// discovering an unwritable journal on the first deployment.
func checkStateDir(dir string) error {
	fi, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%v (create the directory first)", err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("%s is not a directory", dir)
	}
	probe, err := os.CreateTemp(dir, ".innetd-probe-*")
	if err != nil {
		return fmt.Errorf("directory is not writable: %v", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

func parseRole(s string) (controller.Role, error) {
	switch s {
	case "single", "":
		return controller.RoleSingle, nil
	case "leader":
		return controller.RoleLeader, nil
	case "standby":
		return controller.RoleStandby, nil
	default:
		return controller.RoleSingle, fmt.Errorf("unknown role %q (use single, leader or standby)", s)
	}
}

func loadTopology(name string) (*topology.Topology, error) {
	switch {
	case name == "fig3":
		return topology.PaperFig3()
	case name == "fig1":
		return topology.PaperFig1()
	case len(name) > 6 && name[:6] == "grown:":
		var n int
		if _, err := fmt.Sscanf(name[6:], "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("bad grown size %q", name[6:])
		}
		return topology.Grown(n)
	default:
		fmt.Fprintln(os.Stderr, "unknown topology; use fig3, fig1 or grown:<n>")
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}
