package elements

import (
	"fmt"
	"strconv"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/symexec"
)

func init() {
	click.Register("Unqueue", func() click.Element { return &Unqueue{} })
}

// kicker is how an upstream Queue wakes a pull-input element when new
// packets arrive (the analogue of Click's task notifiers).
type kicker interface {
	Kick(ctx *click.Context)
}

// Unqueue is Click's push/pull converter: its input is a pull port
// wired to a Queue's output, and it eagerly drains the queue into its
// push output (up to BURST packets per wake-up, default unlimited):
//
//	q :: Queue(1000);
//	... -> q -> Unqueue() -> out;
type Unqueue struct {
	click.Base
	Burst    int
	upstream click.Puller
	upPort   int
	// Pulled counts forwarded packets.
	Pulled uint64
}

// Class implements click.Element.
func (e *Unqueue) Class() string { return "Unqueue" }

// Configure implements click.Element.
func (e *Unqueue) Configure(args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("Unqueue: want at most [BURST]")
	}
	if len(args) == 1 && args[0] != "" {
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return fmt.Errorf("Unqueue: bad burst %q", args[0])
		}
		e.Burst = n
	}
	return nil
}

// InPorts implements click.Element.
func (e *Unqueue) InPorts() int { return 1 }

// OutPorts implements click.Element.
func (e *Unqueue) OutPorts() int { return 1 }

// SetUpstream implements click.UpstreamSetter.
func (e *Unqueue) SetUpstream(port int, up click.Puller, upPort int) error {
	if e.upstream != nil {
		return fmt.Errorf("Unqueue: pull input already wired")
	}
	e.upstream = up
	e.upPort = upPort
	return nil
}

// Step implements click.Element. A pull input cannot be pushed to;
// misdirected packets are dropped (real Click fails the configuration
// at parse time; we lack push/pull type inference, so this is the
// runtime guard).
func (e *Unqueue) Step(env click.Env, port int, p *packet.Packet) click.Verdict {
	return click.Drop(click.DropDiscard)
}

// Kick drains the upstream queue (the notifier wake-up).
func (e *Unqueue) Kick(ctx *click.Context) {
	if e.upstream == nil {
		return
	}
	n := 0
	for {
		if e.Burst > 0 && n >= e.Burst {
			return
		}
		p := e.upstream.Pull(ctx, e.upPort)
		if p == nil {
			return
		}
		e.Pulled++
		n++
		e.Out(ctx, 0, p)
	}
}

// Tick implements click.Ticker: a safety net that drains anything the
// notifier missed (e.g. packets enqueued before wiring completed).
func (e *Unqueue) Tick(ctx *click.Context) int64 {
	e.Kick(ctx)
	return -1
}

// Sym implements symexec.Model: scheduling does not change headers.
func (e *Unqueue) Sym(port int, s *symexec.State) []symexec.Transition {
	return []symexec.Transition{{Port: 0, S: s}}
}
