package inet

import (
	"testing"
	"time"
)

func TestRTOGranularityFloorsTheVarianceTerm(t *testing.T) {
	// A path that answers in 2 ms every time drives RTTVAR towards zero.
	// Without G the RTO closes in on the RTT itself; with G it keeps G of
	// margin.
	for _, c := range []struct {
		g, want time.Duration
	}{{0, 2 * time.Millisecond}, {time.Millisecond, 3 * time.Millisecond}} {
		e := NewRTO(time.Second, 0, time.Minute, c.g)
		for i := 0; i < 100; i++ {
			e.Sample(2 * time.Millisecond)
		}
		if got := e.Current(); got != c.want {
			t.Errorf("G = %v: RTO %v after 100 equal samples, want %v", c.g, got, c.want)
		}
	}
}

func TestRTOBackoffDoublesUpToMaxAndSampleClearsIt(t *testing.T) {
	e := NewRTO(time.Second, 0, 3*time.Second, 0)
	for _, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 3 * time.Second} {
		if got := e.Current(); got != want {
			t.Fatalf("RTO %v, want %v", got, want)
		}
		e.TimedOut()
	}
	e.Sample(100 * time.Millisecond) // SRTT 100 ms, RTTVAR 50 ms
	if got := e.Current(); got != 300*time.Millisecond {
		t.Fatalf("RTO %v after a sample, want 300ms with the backoff cleared", got)
	}
}

func TestRTOBaseIgnoresBackoffAndFollowsSamples(t *testing.T) {
	e := NewRTO(time.Second, 200*time.Millisecond, 3*time.Second, 0)
	for i := 0; i < 3; i++ {
		if got := e.Base(); got != time.Second {
			t.Fatalf("after %d timeouts: base %v, want the initial 1s (current %v)", i, got, e.Current())
		}
		e.TimedOut()
	}
	e.Sample(100 * time.Millisecond) // SRTT 100 ms, RTTVAR 50 ms
	if got := e.Base(); got != 300*time.Millisecond {
		t.Fatalf("base %v after a sample, want 300ms", got)
	}
	e.TimedOut()
	e.Sample(100 * time.Millisecond) // RTTVAR 37.5 ms
	if got := e.Base(); got != 250*time.Millisecond {
		t.Fatalf("base %v after a second sample, want 250ms", got)
	}
}
