package elements

import (
	"reflect"
	"testing"

	"github.com/in-net/innet/internal/click"
)

// outsideStep is the one list of classes that move packets by any
// means other than returning a verdict from Step, each with the reason
// it must. Everything else has exactly one piece of per-packet code.
var outsideStep = map[string]string{
	"Queue":        "Tick drains the buffer on the driver's schedule; Pull/Wake hand it to a pull-side consumer (Click's pull path and task notifier)",
	"Unqueue":      "pull input: Kick/Tick pull from the upstream Queue and push downstream; Step only rejects misdirected pushes",
	"TimedSource":  "self-scheduling source: Tick creates packets; Step only rejects misdirected pushes",
	"TimedUnqueue": "Tick releases held packets when the batching interval elapses",
	"RatedUnqueue": "Tick releases held packets at the configured rate",
}

// TestOneStepPerClass is the registry-wide guard on "one definition per
// class": every registered class defines its packet behaviour in Step
// (the click.Element interface demands it), none brings back a
// hand-written Push beside it, and only the listed classes implement a
// scheduling interface through which packets leave outside Step.
func TestOneStepPerClass(t *testing.T) {
	listed := make(map[string]bool)
	for _, class := range click.Classes() {
		el := click.Lookup(class)()
		if _, has := reflect.TypeOf(el).MethodByName("Push"); has {
			t.Errorf("%s: has a Push method; packet logic belongs in Step, driven by click.Push", class)
		}
		_, ticks := el.(click.Ticker)
		_, pulls := el.(click.Puller)
		_, pulled := el.(click.UpstreamSetter)
		_, wakes := el.(click.Waker)
		_, kicks := el.(kicker)
		moves := ticks || pulls || pulled || wakes || kicks
		if reason, ok := outsideStep[el.Class()]; ok {
			listed[el.Class()] = true
			if !moves {
				t.Errorf("%s: listed in outsideStep (%s) but moves no packets outside Step; drop the entry", class, reason)
			}
		} else if moves {
			t.Errorf("%s: moves packets outside Step (ticker/pull/wake) but is not listed in outsideStep with a reason", class)
		}
	}
	for class := range outsideStep {
		if !listed[class] {
			t.Errorf("outsideStep lists %s, which is not a registered class", class)
		}
	}
}
