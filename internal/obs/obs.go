// Package obs is the observability spine of the HydraNet-FT reproduction:
// a structured event bus carried on the virtual clock. Net-wide counter
// snapshots are the facade's (Net.Snapshot), built from each layer's own
// Stats record.
//
// The bus is designed to be free when nobody listens: every emit site
// guards with Bus.Enabled(kind), a nil-safe bitmask test, and only builds
// the Event value when a subscriber exists. The simulation is
// single-threaded (see internal/sim), so the bus performs no locking;
// subscribers run synchronously at the emitting event's virtual time.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"hydranet/internal/inet"
)

// Kind enumerates event types.
type Kind uint8

// Event kinds, grouped by the emitting layer.
const (
	// netsim fabric.
	KindPacketLoss  Kind = iota // frame lost to random link loss
	KindQueueDrop               // frame dropped at a full drop-tail queue
	KindMTUDrop                 // frame larger than the link MTU
	KindNodeCrash               // fail-stop
	KindNodeRestart             // recovery

	// tcp.
	KindRetransmit     // data segment retransmitted
	KindRTO            // retransmission timeout fired
	KindFastRetransmit // triple-duplicate-ACK recovery entered
	KindDeposit        // receive buffer deposited bytes to the application
	KindAckProgress    // cumulative ACK advanced the send window

	// redirector.
	KindMulticast   // FT fan-out: one client packet copied to the replica set
	KindRedirect    // scaling-mode nearest-replica tunnel
	KindTunnelError // tunnel copy dropped (no route / marshal failure)

	// ft-TCP core.
	KindChainSend // acknowledgment-channel message sent upstream
	KindChainRecv // acknowledgment-channel message received from successor
	KindSuspicion // failure estimator tripped
	KindPromotion // backup promoted to primary
	KindDemotion  // primary demoted to backup (management race repair)

	// replica management.
	KindRegistration // replica registered with the redirector daemon
	KindReconfig     // chain reconfigured (failure, leave, eviction)
	KindRecommission // recovered host rejoined a replica set

	// measurement harnesses (published by CLIs and tests, not by the stack).
	KindClientDeliver // client application consumed service bytes

	numKinds
)

var kindNames = [numKinds]string{
	KindPacketLoss:     "packet-loss",
	KindQueueDrop:      "queue-drop",
	KindMTUDrop:        "mtu-drop",
	KindNodeCrash:      "node-crash",
	KindNodeRestart:    "node-restart",
	KindRetransmit:     "retransmit",
	KindRTO:            "rto",
	KindFastRetransmit: "fast-retransmit",
	KindDeposit:        "deposit",
	KindAckProgress:    "ack-progress",
	KindMulticast:      "multicast",
	KindRedirect:       "redirect",
	KindTunnelError:    "tunnel-error",
	KindChainSend:      "chain-send",
	KindChainRecv:      "chain-recv",
	KindSuspicion:      "suspicion",
	KindPromotion:      "promotion",
	KindDemotion:       "demotion",
	KindRegistration:   "registration",
	KindReconfig:       "reconfig",
	KindRecommission:   "recommission",
	KindClientDeliver:  "client-deliver",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalText renders the kind by name, in JSON too.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText resolves a kind from its name, so events round-trip through
// exports (audit reports).
func (k *Kind) UnmarshalText(name []byte) error {
	kind, ok := KindByName(string(name))
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", name)
	}
	*k = kind
	return nil
}

// Kinds returns every defined kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// KindByName resolves a kind name ("promotion", "chain-send", ...).
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one structured observation, timestamped in virtual time. It
// carries values, not text: emit sites format nothing, subscribers key on
// the endpoints directly, and this package alone renders (Text, String,
// MarshalJSON).
type Event struct {
	Time    time.Duration
	Kind    Kind
	Node    string        // emitting node
	Service inet.Endpoint // service addr:port (zero: none)
	Conn    inet.Endpoint // remote/client endpoint (zero: none)
	Seq     uint64        // sequence-number detail
	Ack     uint64        // acknowledgment-number detail
	Size    int           // bytes or copy count

	// What the kind says beyond the cursors; detail renders it.
	Peer    string      // packet-loss, queue-drop: the node the frame was headed to
	Host    inet.Addr   // registration: the joining host; redirect, tunnel-error: the tunnel target
	Hosts   []inet.Addr // reconfig: the hosts that left the chain
	Primary bool        // registration: joined as primary, not backup
	Count   int         // rto: attempt; promotion: connections; suspicion: retransmission threshold; mtu-drop: link MTU
	Cause   string      // reconfig, tunnel-error: why

	// Detail is detail text carried verbatim: what a harness-published event
	// says, and all that is left of the fields above once an event has been
	// through JSON.
	Detail string
}

// detail renders the kind's typed fields as the event's free-form tail.
func (e Event) detail() string {
	if e.Detail != "" {
		return e.Detail
	}
	switch e.Kind {
	case KindPacketLoss, KindQueueDrop:
		return "→" + e.Peer
	case KindMTUDrop:
		return fmt.Sprintf("mtu %d", e.Count)
	case KindRTO:
		return fmt.Sprintf("attempt %d", e.Count)
	case KindRedirect:
		return "→" + e.Host.String()
	case KindTunnelError:
		return "→" + e.Host.String() + ": " + e.Cause
	case KindSuspicion:
		return fmt.Sprintf("after %d retransmissions", e.Count)
	case KindPromotion:
		return fmt.Sprintf("%d conns", e.Count)
	case KindRegistration:
		if e.Primary {
			return e.Host.String() + " as primary"
		}
		return e.Host.String() + " as backup"
	case KindReconfig:
		return fmt.Sprintf("%s %v", e.Cause, e.Hosts)
	}
	return ""
}

// eventJSON is the rendered form of an Event — endpoints as addr:port, the
// typed detail as its text — and its JSON schema.
type eventJSON struct {
	Time    time.Duration `json:"time"`
	Kind    Kind          `json:"kind"`
	Node    string        `json:"node,omitempty"`
	Service string        `json:"service,omitempty"`
	Conn    string        `json:"conn,omitempty"`
	Seq     uint64        `json:"seq,omitempty"`
	Ack     uint64        `json:"ack,omitempty"`
	Size    int           `json:"size,omitempty"`
	Detail  string        `json:"detail,omitempty"`
}

func (e Event) render() eventJSON {
	return eventJSON{
		Time: e.Time, Kind: e.Kind, Node: e.Node,
		Service: EndpointText(e.Service), Conn: EndpointText(e.Conn),
		Seq: e.Seq, Ack: e.Ack, Size: e.Size, Detail: e.detail(),
	}
}

// EndpointText renders an event's Service or Conn for an export: addr:port,
// and nothing for the zero value, which means the event has none.
func EndpointText(ep inet.Endpoint) string {
	if ep == (inet.Endpoint{}) {
		return ""
	}
	return ep.String()
}

// Text renders everything but the timestamp and node, for log lines whose
// prefix a renderer (the tracer) supplies itself.
func (e Event) Text() string {
	j := e.render()
	var b strings.Builder
	b.WriteString(j.Kind.String())
	if j.Service != "" {
		b.WriteString(" svc=")
		b.WriteString(j.Service)
	}
	if j.Conn != "" {
		b.WriteString(" conn=")
		b.WriteString(j.Conn)
	}
	if j.Seq != 0 {
		fmt.Fprintf(&b, " seq=%d", j.Seq)
	}
	if j.Ack != 0 {
		fmt.Fprintf(&b, " ack=%d", j.Ack)
	}
	if j.Size != 0 {
		fmt.Fprintf(&b, " size=%d", j.Size)
	}
	if j.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(j.Detail)
	}
	return b.String()
}

// String renders the full event as one line.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-10s %s", e.Time.Round(time.Microsecond), e.Node, e.Text())
}

// MarshalJSON writes the rendered form. Reading it back needs no counterpart:
// the keys are field names, an Endpoint reads its own text, and the detail
// lands in Detail — so what was read marshals to the same bytes, though its
// typed detail fields stay zero.
func (e Event) MarshalJSON() ([]byte, error) { return json.Marshal(e.render()) }

// Handler consumes events, synchronously, at the emitting virtual time.
type Handler func(Event)

// Bus routes events from emitters to subscribers. The zero-subscriber case
// is the fast path: Enabled is a nil check plus one bitmask test, and no
// Event value is ever built. A nil *Bus is valid and permanently disabled,
// so components can hold a bus pointer without wiring.
type Bus struct {
	clock Clock
	mask  uint64
	subs  [numKinds][]Handler
}

// Clock is what a bus stamps events with: the virtual clock, which a
// *sim.Scheduler is.
type Clock interface{ Now() time.Duration }

// Init readies a zero Bus, embedded by value or not, to stamp events with
// clock.
func (b *Bus) Init(clock Clock) { b.clock = clock }

// Enabled reports whether at least one subscriber listens for kind. Emit
// sites must guard with it so that building the Event costs nothing when
// observability is off.
func (b *Bus) Enabled(k Kind) bool {
	return b != nil && b.mask&(1<<k) != 0
}

// Subscribe registers h for the given kinds (all kinds when none given).
func (b *Bus) Subscribe(h Handler, kinds ...Kind) {
	if len(kinds) == 0 {
		kinds = Kinds()
	}
	for _, k := range kinds {
		if int(k) >= int(numKinds) {
			continue
		}
		b.subs[k] = append(b.subs[k], h)
		b.mask |= 1 << k
	}
}

// Publish stamps the event with the current virtual time (unless the
// emitter set one) and delivers it to every subscriber of its kind. The
// Event itself travels by value; subscribers that retain it pay for their
// own copies.
func (b *Bus) Publish(e Event) {
	if b == nil || b.mask&(1<<e.Kind) == 0 {
		return
	}
	if e.Time == 0 && b.clock != nil {
		e.Time = b.clock.Now()
	}
	for _, h := range b.subs[e.Kind] {
		h(e)
	}
}
