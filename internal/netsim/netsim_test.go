package netsim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*Millisecond, func() { got = append(got, 3) })
	s.After(10*Millisecond, func() { got = append(got, 1) })
	s.After(20*Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 30*Millisecond {
		t.Errorf("now = %d", s.Now())
	}
	if s.Executed != 3 {
		t.Errorf("executed = %d", s.Executed)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Second, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(Second, func() {
		s.After(Second, func() {
			fired++
			if s.Now() != 2*Second {
				t.Errorf("nested time = %d", s.Now())
			}
		})
	})
	s.Run()
	if fired != 1 {
		t.Error("nested event did not fire")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(Second, func() { fired++ })
	s.After(3*Second, func() { fired++ })
	s.RunUntil(2 * Second)
	if fired != 1 {
		t.Errorf("fired = %d", fired)
	}
	if s.Now() != 2*Second {
		t.Errorf("now = %d", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run()
	if fired != 2 {
		t.Error("remaining event lost")
	}
}

func TestPastEventClamped(t *testing.T) {
	s := New(1)
	s.After(Second, func() {
		s.At(0, func() {
			if s.Now() != Second {
				t.Errorf("past event ran at %d", s.Now())
			}
		})
	})
	s.Run()
}

func TestLinkLatencyAndSerialization(t *testing.T) {
	s := New(1)
	// 1 ms latency, 8 Mbit/s -> 1000-byte packet takes 1 ms to
	// serialize.
	l := NewLink(s, Millisecond, 8e6, 0)
	var arrivals []Time
	l.Send(1000, func() { arrivals = append(arrivals, s.Now()) })
	l.Send(1000, func() { arrivals = append(arrivals, s.Now()) })
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[0] != 2*Millisecond {
		t.Errorf("first arrival = %d want 2ms", arrivals[0])
	}
	// The second packet queues behind the first: 2 ms serialization +
	// 1 ms latency.
	if arrivals[1] != 3*Millisecond {
		t.Errorf("second arrival = %d want 3ms", arrivals[1])
	}
}

func TestLinkInfiniteRate(t *testing.T) {
	s := New(1)
	l := NewLink(s, Millisecond, 0, 0)
	var at Time = -1
	l.Send(1_000_000, func() { at = s.Now() })
	s.Run()
	if at != Millisecond {
		t.Errorf("arrival = %d", at)
	}
}

func TestLinkLoss(t *testing.T) {
	s := New(42)
	l := NewLink(s, 0, 0, 0.5)
	delivered := 0
	for i := 0; i < 1000; i++ {
		l.Send(100, func() { delivered++ })
	}
	s.Run()
	if l.Sent != 1000 {
		t.Errorf("sent = %d", l.Sent)
	}
	if delivered < 400 || delivered > 600 {
		t.Errorf("delivered = %d, loss far from 50%%", delivered)
	}
	if int(l.Lost)+delivered != 1000 {
		t.Errorf("lost+delivered = %d", int(l.Lost)+delivered)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(7)
		l := NewLink(s, Millisecond, 1e6, 0.3)
		var out []Time
		for i := 0; i < 50; i++ {
			l.Send(500, func() { out = append(out, s.Now()) })
		}
		s.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic delivery count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic delivery times")
		}
	}
}

func TestFluidTransfer(t *testing.T) {
	// Large transfer at 25 Mb/s: dominated by size/rate.
	size := int64(50 << 20)
	got := FluidTransfer(size, 20*Millisecond, 25e6)
	ideal := Time(float64(size*8) / 25e6 * 1e9)
	if got < ideal || got > ideal+Second {
		t.Errorf("transfer = %v ideal %v", got, ideal)
	}
	// Small transfer: slow-start rounds dominate.
	small := FluidTransfer(100_000, 100*Millisecond, 1e9)
	if small < 100*Millisecond || small > 2*Second {
		t.Errorf("small transfer = %v", small)
	}
	if FluidTransfer(0, Millisecond, 1e6) != 0 {
		t.Error("zero-size transfer")
	}
	// Monotone in size.
	if FluidTransfer(1<<20, 20*Millisecond, 10e6) >= FluidTransfer(10<<20, 20*Millisecond, 10e6) {
		t.Error("not monotone in size")
	}
}

func TestLinkUtilization(t *testing.T) {
	s := New(1)
	l := NewLink(s, 0, 8e6, 0) // 1000 B takes 1 ms
	if l.Utilization() != 0 {
		t.Error("fresh link busy")
	}
	l.Send(1000, func() {})
	s.RunUntil(2 * Millisecond)
	u := l.Utilization()
	if u < 0.4 || u > 0.6 {
		t.Errorf("utilization = %f, want ≈0.5 (1 ms busy of 2 ms)", u)
	}
}

func TestSecondsMillis(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Error("Seconds")
	}
	if Millis(2.5) != 2500*Microsecond {
		t.Error("Millis")
	}
}

type counter struct{ n int }

func (c *counter) add(arg any) { c.n += *arg.(*int) }

// TestAfterArgDoesNotAllocate: a bound method value plus a pointer
// argument schedule and dispatch without allocating once the heap has
// grown.
func TestAfterArgDoesNotAllocate(t *testing.T) {
	s := New(1)
	c := &counter{}
	fn, one := c.add, 1
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			s.AfterArg(Time(i%3), fn, &one)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("AfterArg + Run allocated %.1f times per run", allocs)
	}
	if c.n != 8*101 {
		t.Fatalf("dispatched %d events, want %d", c.n, 8*101)
	}
}

// FuzzEventOrder checks the dispatch order against a reference model:
// a list of pending events in scheduling order, from which the earliest
// timestamp is taken first and ties go to the one scheduled first — a
// stable sort by (at, seq). ops drives random interleavings of At,
// After and AfterArg with equal timestamps, times in the past (clamped
// to now), events scheduled from inside dispatch, and RunUntil
// boundaries.
func FuzzEventOrder(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(2), []byte{0x10, 0x10, 0x10, 0x43, 0x21, 0x05, 0x17, 0x30, 0x10, 0x02})
	f.Add(int64(3), []byte{0x33, 0x33, 0x00, 0x00, 0x00, 0x24, 0x24, 0x13, 0x35, 0x35, 0x35, 0x11})
	f.Add(int64(4), []byte{0x41, 0x02, 0x42, 0x03, 0x44, 0x1f, 0x2f, 0x3f, 0x4f, 0x0f, 0x00})
	f.Add(int64(5), []byte{0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59})
	f.Add(int64(6), []byte{0x10, 0x12, 0x24, 0x51, 0x83, 0x90, 0x55, 0xa4, 0x84, 0x5f, 0x81, 0x02})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		s := New(seed)
		type ref struct {
			at Time
			id int
		}
		var pending []ref // the model, in scheduling order
		ids := 0
		var next int // next unread op
		var schedule func(op byte)
		fire := func(id int) {
			if len(pending) == 0 {
				t.Fatalf("event %d fired with nothing pending in the model", id)
			}
			best := 0
			for i, r := range pending {
				if r.at < pending[best].at {
					best = i
				}
			}
			want := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			if want.id != id || want.at != s.Now() {
				t.Fatalf("dispatched event %d at %d, model expects %d at %d", id, s.Now(), want.id, want.at)
			}
			// Some events schedule more from inside dispatch.
			if next < len(ops) && ops[next]&0x80 != 0 {
				next++
				schedule(ops[next-1] & 0x7f)
			}
		}
		handler := func(arg any) { fire(*arg.(*int)) }
		schedule = func(op byte) {
			id := ids
			ids++
			d := Time(op&0x0f) - 4 // negative delays exercise clamping
			at := s.Now() + d
			if at < s.Now() {
				at = s.Now()
			}
			switch (op >> 4) % 3 {
			case 0:
				s.At(s.Now()+d, func() { fire(id) })
			case 1:
				s.After(d, func() { fire(id) })
			default:
				s.AfterArg(d, handler, &id)
			}
			pending = append(pending, ref{at: at, id: id})
		}
		for next < len(ops) {
			op := ops[next]
			next++
			if op>>4 == 5 { // a RunUntil boundary
				until := s.Now() + Time(op&0x0f)
				s.RunUntil(until)
				for _, r := range pending {
					if r.at <= until {
						t.Fatalf("RunUntil(%d) left event %d at %d", until, r.id, r.at)
					}
				}
				if s.Now() != until {
					t.Fatalf("RunUntil(%d) ended at %d", until, s.Now())
				}
				continue
			}
			schedule(op & 0x7f)
		}
		s.Run()
		if len(pending) != 0 || s.Pending() != 0 {
			t.Fatalf("model has %d pending, sim %d", len(pending), s.Pending())
		}
		if s.Executed != uint64(ids) {
			t.Fatalf("executed %d of %d events", s.Executed, ids)
		}
	})
}

func BenchmarkEventLoop(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(Millisecond, func() {})
		if s.Pending() > 1024 {
			s.Run()
		}
	}
	s.Run()
}
