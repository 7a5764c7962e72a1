// Package dataplane drives Click configurations with real packets at
// wall-clock speed. It is the measurement harness behind the
// sandboxing-cost experiment (paper Fig. 11) and the per-element
// microbenchmarks: the processing cost is measured on this machine,
// then capped by the modeled 10 GbE line rate, so the *shape* of the
// paper's curves (fixed per-packet enforcer cost that vanishes into
// the line-rate cap as packets grow) is reproduced even though the
// absolute CPU differs from the authors' Xeon.
package dataplane

import (
	"fmt"
	"time"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
)

// Result is one throughput measurement.
type Result struct {
	// Packets pushed and elapsed wall time.
	Packets int
	Elapsed time.Duration
	// PPS is the measured packet rate.
	PPS float64
	// NsPerPacket is the average per-packet cost.
	NsPerPacket float64
	// Transmitted counts packets that exited through ToNetfront.
	Transmitted uint64
}

// Runner pushes packets through one Click router on one goroutine
// (one "core").
type Runner struct {
	router *click.Router
	ctx    *click.Context
	tx     uint64
	now    int64
}

// NewRunner prepares a router for measurement. The router's
// ToNetfront packets are counted and recycled.
func NewRunner(r *click.Router) (*Runner, error) {
	if r.NumSources() == 0 {
		return nil, fmt.Errorf("dataplane: router has no FromNetfront")
	}
	run := &Runner{router: r}
	run.ctx = &click.Context{
		Now:      func() int64 { return run.now },
		Transmit: func(iface int, p *packet.Packet) { run.tx++ },
	}
	return run, nil
}

// NewRunnerString parses, builds and prepares a configuration.
func NewRunnerString(src string) (*Runner, error) {
	cfg, err := buildRouter(src)
	if err != nil {
		return nil, err
	}
	return NewRunner(cfg)
}

func buildRouter(src string) (*click.Router, error) {
	r, err := func() (r *click.Router, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("dataplane: %v", rec)
			}
		}()
		return click.MustBuildString(src), nil
	}()
	return r, err
}

// Measure pushes n copies of the template packet through the router
// and measures wall-clock throughput. The template is reused (headers
// restored each iteration), so the loop allocates nothing.
func (r *Runner) Measure(template *packet.Packet, n int) Result {
	// Warm up code paths and caches.
	work := template.Clone()
	for i := 0; i < 1000; i++ {
		*work = *template
		r.now += 1000
		r.router.Inject(r.ctx, 0, work)
	}
	r.tx = 0
	start := time.Now()
	for i := 0; i < n; i++ {
		*work = *template
		r.now += 1000 // advancing virtual ns keeps token buckets sane
		r.router.Inject(r.ctx, 0, work)
	}
	elapsed := time.Since(start)
	res := Result{
		Packets:     n,
		Elapsed:     elapsed,
		Transmitted: r.tx,
	}
	if elapsed > 0 {
		res.PPS = float64(n) / elapsed.Seconds()
		res.NsPerPacket = float64(elapsed.Nanoseconds()) / float64(n)
	}
	return res
}

// MeasureBest compares runners: it runs Measure trials times on each,
// interleaved (every runner once per round, in reverse order every
// other round), and returns each runner's fastest run. Taking the best
// strips scheduler noise from a CPU-bound microbenchmark, and
// interleaving spreads a burst of load from other processes over every
// runner, so a comparison of the results does not hinge on which
// runner happened to measure during the burst.
func MeasureBest(template *packet.Packet, n, trials int, runners ...*Runner) []Result {
	best := make([]Result, len(runners))
	for i := 0; i < trials; i++ {
		for k := range runners {
			j := k
			if i%2 == 1 {
				j = len(runners) - 1 - k
			}
			if res := runners[j].Measure(template, n); i == 0 || res.PPS > best[j].PPS {
				best[j] = res
			}
		}
	}
	return best
}

// LineRatePPS is the 10 GbE packet-rate cap for a given frame size
// (Ethernet preamble+IFG+CRC included).
func LineRatePPS(pktBytes int, lineRateBps float64) float64 {
	return lineRateBps / (float64(pktBytes+24) * 8)
}

// CapPPS caps a measured rate at line rate, as a receiving NIC would.
func CapPPS(pps float64, pktBytes int, lineRateBps float64) float64 {
	if cap := LineRatePPS(pktBytes, lineRateBps); pps > cap {
		return cap
	}
	return pps
}

// UDPTemplate builds a measurement packet with the given total IP
// length (header + payload).
func UDPTemplate(totalBytes int) *packet.Packet {
	payload := totalBytes - 28
	if payload < 0 {
		payload = 0
	}
	return &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("8.8.8.8"),
		DstIP:    packet.MustParseIP("198.51.100.10"),
		SrcPort:  1000,
		DstPort:  1500,
		TTL:      64,
		Payload:  make([]byte, payload),
	}
}
