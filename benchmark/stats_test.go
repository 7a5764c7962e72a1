package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{50, 0, false}, // p90 would leave 5 samples beyond it
		{99, 0, false}, // 9.9 samples beyond p90
		{100, 0.90, true},
		{999, 0.90, true}, // 9.99 beyond p99
		{1000, 0.99, true},
		{2000, 0.99, true},
		{10000, 0.999, true},
		{1250000, 0.9999, true},
	}
	for _, c := range cases {
		q, ok := highestPercentile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func TestQuantileSorted(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantileSorted(s, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantileSorted(q=%v) = %v, want %v", q, got, want)
		}
	}
	if quantileSorted(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestFastSideIgnoresSlowSlices(t *testing.T) {
	// Ten slices, six of them disturbed: the fast-side decile reads the
	// undisturbed level for a rate and for a latency; a median would not.
	rates := []float64{100, 60, 99, 100, 60, 55, 101, 70, 58, 62}
	if got := fastSide(rates, true); got < 99.9 || got > 101 {
		t.Errorf("rate: fast side %v, want ≈100 (the median is %v)", got, median(rates))
	}
	lat := []float64{10, 18, 9.9, 10, 19, 25, 10.1, 17, 21, 16}
	if got := fastSide(lat, false); got < 9.9 || got > 10.1 {
		t.Errorf("latency: fast side %v, want ≈10 (the median is %v)", got, median(lat))
	}
	// One lucky slice does not set the result.
	if got := fastSide([]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 140}, true); got != 100 {
		t.Errorf("one outlier on the fast side moved the result to %v", got)
	}
	if n := sliceCount(25); n != 50 {
		t.Errorf("sliceCount(25) = %d, want 50", n)
	}
	if n := sliceCount(0.1); n != 1 {
		t.Errorf("sliceCount(0.1) = %d, want 1", n)
	}
}

func TestQuartileSpreadMatchesPythonExclusiveQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

// TestOpenLoopChargesStallFromDueTime drives the open-loop scheduler
// against a stub server that stalls 200 ms on one request. A generator
// that measured from the send time (coordinated omission) would show
// one slow request; measured from the due time, every request that was
// due during the stall is late, and the lateness is reported.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stallAt, stall = 5, 200 * time.Millisecond
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	const n, interval = 30, 10 * time.Millisecond
	res := runOpenLoop(time.Now(), interval, n, 1, func(_, _ int) time.Time {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
		} else {
			resp.Body.Close()
		}
		return time.Now()
	})
	if len(res.latencyNS) != n {
		t.Fatalf("got %d samples, want %d", len(res.latencyNS), n)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if ms(res.latencyNS[stallAt]) < 190 {
		t.Errorf("stalled request latency %.1f ms, want ≥ 190", ms(res.latencyNS[stallAt]))
	}
	// Request stallAt+1 was due 10 ms into a 200 ms stall: the server
	// answered it quickly, but it had been waiting ~190 ms by then.
	next := stallAt + 1
	if ms(res.rttNS[next]) > 100 {
		t.Errorf("request after the stall: rtt %.1f ms, the stub answers at once", ms(res.rttNS[next]))
	}
	if ms(res.latencyNS[next]) < 150 {
		t.Errorf("request after the stall: latency %.1f ms from its due time, want ≥ 150 (coordinated omission?)", ms(res.latencyNS[next]))
	}
	if ms(res.latenessNS[next]) < 150 {
		t.Errorf("request after the stall: reported lateness %.1f ms, want ≥ 150", ms(res.latenessNS[next]))
	}
	// The backlog drains: the last request is back on schedule.
	if ms(res.latenessNS[n-1]) > 50 {
		t.Errorf("last request still %.1f ms late; the backlog should have drained", ms(res.latenessNS[n-1]))
	}
	late := 0
	for _, l := range res.latenessNS {
		if ms(l) > 20 {
			late++
		}
	}
	if late < 10 {
		t.Errorf("%d requests reported late, want ≥ 10 (every request due during the stall)", late)
	}
}
