package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/packet"
)

// verdict is what the controller must answer to a generated request.
type verdict int

const (
	vAdmitted  verdict = iota // deployed as submitted
	vSandboxed                // deployed wrapped in a ChangeEnforcer
	vRejected                 // refused (HTTP 422)
)

func (v verdict) String() string { return [...]string{"admitted", "sandboxed", "rejected"}[v] }

// deployKind is one use case of the paper (§2, §8) turned into a
// request template. The verdict follows from the security rules of
// §2.1/§4.4 by construction, not from running the checker.
type deployKind int

const (
	kindBatcher      deployKind = iota // push-notification batcher (Fig. 4): client trust, reach requirement
	kindTunnel                         // protocol tunnel endpoint: inner destination unknown ⇒ sandbox
	kindDDoSFilter                     // port filter in front of the tenant's server
	kindReverseProxy                   // stock module
	kindGeoDNS                         // stock module
	kindX86VM                          // stock module, opaque ⇒ sandbox
	kindSpoofer                        // rewrites its source address ⇒ rejected (anti-spoofing)
	kindDefaultOff                     // sends to a destination nobody authorized ⇒ rejected
)

func (k deployKind) String() string {
	return [...]string{"batcher", "tunnel", "ddos-filter", "reverse-proxy", "geo-dns", "x86-vm", "spoofer", "default-off"}[k]
}

// deployMix is the by-construction request mix, repeated every ten
// requests: 1 rejected, 2 sandboxed, 7 admitted. A fixed pattern (not
// a random draw) keeps the mix identical for every seed, so seeds vary
// the parameters and not the amount of work.
var deployMix = [10]deployKind{
	kindBatcher, kindTunnel, kindDDoSFilter, kindReverseProxy, kindSpoofer,
	kindGeoDNS, kindX86VM, kindDDoSFilter, kindBatcher, kindReverseProxy,
}

// rejectedKinds alternates the two refusal reasons in the rejected slot.
var rejectedKinds = [2]deployKind{kindSpoofer, kindDefaultOff}

const (
	// deployResident is the number of modules kept deployed while
	// measuring: admission cost grows with the hosted set (§6.1), so it
	// is part of the workload definition.
	deployResident = 96
	// deployWarmPool is the number of distinct requests deploy-warm
	// cycles through.
	deployWarmPool = 32
	tenantServers  = 0xc6120000 // 198.18.0.0/15: benchmarking range (RFC 2544), 131072 tenant servers
	clientNetBase  = 0x0a010000 // 10.1.0.0/16: topology.FixtureClientNet
)

// deployReq is one generated request with its expected verdict.
type deployReq struct {
	Req  api.DeployRequest
	Kind deployKind
	Want verdict
}

// genDeploy derives request i of a seed. It is a pure function of
// (seed, stream, i), so the open and closed loops can draw requests
// concurrently without sharing generator state.
func genDeploy(seed int64, stream uint64, i int) deployReq {
	r := newRNG(seed, stream<<32|uint64(i))
	kind := deployMix[i%len(deployMix)]
	if kind == kindSpoofer {
		kind = rejectedKinds[(i/len(deployMix))%2]
	}
	return buildDeploy(kind, fmt.Sprintf("s%dx%dn%d", seed, stream, i), r)
}

// genAdmittedDeploy is genDeploy restricted to requests that deploy
// (for the resident set and the warm pool).
func genAdmittedDeploy(seed int64, stream uint64, i int) deployReq {
	r := newRNG(seed, stream<<32|uint64(i))
	kind := deployMix[i%len(deployMix)]
	if kind == kindSpoofer {
		kind = kindGeoDNS
	}
	return buildDeploy(kind, fmt.Sprintf("s%dx%dn%d", seed, stream, i), r)
}

func buildDeploy(kind deployKind, id string, r *rng) deployReq {
	server := packet.IPString(tenantServers + uint32(1+r.intn(131000)))
	port := 1024 + r.intn(60000)
	d := deployReq{Kind: kind, Req: api.DeployRequest{
		Tenant: "t" + id, ModuleName: "m" + id, Trust: "third-party",
		Whitelist: []string{server},
	}}
	switch kind {
	case kindBatcher:
		// The handset's address, the notification port and the batching
		// interval are per tenant; the requirement pins the module to a
		// platform the Internet can reach and the client can be reached
		// from (Platform3 on Fig. 3).
		handset := packet.IPString(clientNetBase + uint32(256+r.intn(60000)))
		d.Req.Trust = "client"
		d.Req.Whitelist = nil
		d.Req.Config = fmt.Sprintf(`
FromNetfront() ->
IPFilter(allow udp port %d) ->
IPRewriter(pattern - - %s - 0 0)
-> TimedUnqueue(%d,100)
-> dst::ToNetfront()
`, port, handset, 30+r.intn(300))
		d.Req.Requirements = fmt.Sprintf(
			"reach from internet udp -> %s:dst:0 dst %s -> client dst port %d const payload",
			d.Req.ModuleName, handset, port)
		d.Want = vAdmitted
	case kindTunnel:
		d.Req.Config = `
in :: FromNetfront();
dec :: IPDecap();
snat :: SetIPSrc($MODULE_IP);
out :: ToNetfront();
in -> dec -> snat -> out;
`
		d.Want = vSandboxed
	case kindDDoSFilter:
		d.Req.Config = fmt.Sprintf(`
in :: FromNetfront();
fw :: IPFilter(allow tcp dst port %d, allow udp dst port %d, deny all);
fwd :: SetIPDst(%s);
out :: ToNetfront();
in -> fw -> fwd -> out;
`, port, 1024+r.intn(60000), server)
		d.Want = vAdmitted
	case kindReverseProxy:
		d.Req.Stock = controller.StockReverseProxy
		d.Want = vAdmitted
	case kindGeoDNS:
		d.Req.Stock = controller.StockGeoDNS
		d.Want = vAdmitted
	case kindX86VM:
		d.Req.Stock = controller.StockX86VM
		d.Want = vSandboxed
	case kindSpoofer:
		// Source rewritten to an address that is neither the module's
		// nor the ingress source's: anti-spoofing refuses it at any
		// trust level below operator.
		d.Req.Config = fmt.Sprintf(`
in :: FromNetfront();
spoof :: SetIPSrc(%s);
fwd :: SetIPDst(%s);
out :: ToNetfront();
in -> spoof -> fwd -> out;
`, packet.IPString(tenantServers+uint32(1+r.intn(131000))), server)
		d.Want = vRejected
	case kindDefaultOff:
		// A third party sending everything to an address outside its
		// whitelist: default-off refuses it.
		d.Req.Config = fmt.Sprintf(`
in :: FromNetfront();
fw :: IPFilter(allow udp dst port %d, deny all);
atk :: SetIPDst(%s);
out :: ToNetfront();
in -> fw -> atk -> out;
`, port, packet.IPString(forbiddenDst))
		d.Want = vRejected
	}
	return d
}

// Streams keep the request sequences of the phases apart.
const (
	streamResident uint64 = 1
	streamWarmPool uint64 = 2
	streamPhaseA   uint64 = 3
	streamPhaseB   uint64 = 4
	streamScaling  uint64 = 5
)

// deployInputHash digests the requests a deploy workload sends: the
// resident set, the warm pool and the first 256 requests of each phase.
func deployInputHash(seed int64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := 0; i < deployResident; i++ {
		_ = enc.Encode(genAdmittedDeploy(seed, streamResident, i))
	}
	for i := 0; i < deployWarmPool; i++ {
		_ = enc.Encode(genAdmittedDeploy(seed, streamWarmPool, i))
	}
	for _, s := range []uint64{streamPhaseA, streamPhaseB, streamScaling} {
		for i := 0; i < 256; i++ {
			_ = enc.Encode(genDeploy(seed, s, i))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
