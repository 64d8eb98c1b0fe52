package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hydranet/internal/inet"
)

// testClock is a virtual clock a test sets by hand.
type testClock time.Duration

func (c *testClock) Now() time.Duration { return time.Duration(*c) }

func TestBusPubSub(t *testing.T) {
	now := testClock(5 * time.Millisecond)
	b := new(Bus)
	b.Init(&now)
	var got []Event
	b.Subscribe(func(e Event) { got = append(got, e) }, KindRetransmit, KindRTO)

	if !b.Enabled(KindRetransmit) || !b.Enabled(KindRTO) {
		t.Fatal("subscribed kinds not enabled")
	}
	if b.Enabled(KindPromotion) {
		t.Fatal("unsubscribed kind reported enabled")
	}

	b.Publish(Event{Kind: KindRetransmit, Node: "s0", Seq: 42})
	b.Publish(Event{Kind: KindPromotion, Node: "s1"}) // no subscriber: dropped
	b.Publish(Event{Kind: KindRTO, Node: "s0"})

	if len(got) != 2 {
		t.Fatalf("received %d events, want 2", len(got))
	}
	if got[0].Kind != KindRetransmit || got[0].Seq != 42 {
		t.Fatalf("first event = %+v", got[0])
	}
	if got[0].Time != 5*time.Millisecond {
		t.Fatalf("event not timestamped from clock: %v", got[0].Time)
	}
}

func TestBusSubscribeAllKinds(t *testing.T) {
	b := new(Bus)
	n := 0
	b.Subscribe(func(Event) { n++ }) // no kinds = all kinds
	for _, k := range Kinds() {
		if !b.Enabled(k) {
			t.Fatalf("kind %v not enabled by all-kinds subscription", k)
		}
		b.Publish(Event{Kind: k})
	}
	if n != len(Kinds()) {
		t.Fatalf("received %d events, want %d", n, len(Kinds()))
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	if b.Enabled(KindRetransmit) {
		t.Fatal("nil bus reports enabled")
	}
	b.Publish(Event{Kind: KindRetransmit}) // must not panic
}

func TestBusDisabledEmitAllocatesNothing(t *testing.T) {
	b := new(Bus)
	b.Subscribe(func(Event) {}, KindPromotion) // something else enabled
	allocs := testing.AllocsPerRun(100, func() {
		// The emit-site pattern: guard first, build the Event only inside.
		if b.Enabled(KindRetransmit) {
			b.Publish(Event{Kind: KindRetransmit, Node: "s0", Detail: "x"})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocates %v per run, want 0", allocs)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if name == "" || strings.Contains(name, "Kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Fatal("bogus name resolved")
	}
}

func TestEventJSONUsesKindName(t *testing.T) {
	e := Event{Time: time.Second, Kind: KindSuspicion, Node: "s1", Service: inet.Endpoint{Addr: inet.AddrFrom4(10, 0, 0, 1), Port: 80}}
	out, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"kind":"suspicion"`) {
		t.Fatalf("kind not rendered by name: %s", out)
	}
}
