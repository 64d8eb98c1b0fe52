package hydranet

import (
	"io"

	"hydranet/internal/capture"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/redirector"
	"hydranet/internal/tcp"
)

// Re-exported capture/tracing types.
type (
	// Capture streams every fabric frame (and the redirector's pre-encap
	// inner copies) to a pcap file readable by Wireshark/tcpdump.
	Capture = capture.Capture
	// FlightRecorder keeps bounded per-host rings of recent frames and
	// obs events, dumpable to pcap + JSON after the fact.
	FlightRecorder = capture.FlightRecorder
	// PcapFile is a parsed pcap stream (the in-repo golden reader).
	PcapFile = capture.File
	// SpanCollector assembles per-connection ft-TCP trace spans from bus
	// events (multicast → chain arrival → deposit → client ACK).
	SpanCollector = tcp.SpanCollector
)

// ReadPcap parses a pcap stream with the in-repo reader.
func ReadPcap(r io.Reader) (*PcapFile, error) { return capture.ReadAll(r) }

// ReadPcapFile parses a pcap file from disk.
func ReadPcapFile(path string) (*PcapFile, error) { return capture.ReadFile(path) }

// StartCapture attaches a packet capture to the whole network: every frame
// accepted for transmission on every link (both directions) plus, for each
// redirector present when the capture starts, the pre-encapsulation inner
// packet of every tunnel copy. Records are timestamped on the virtual
// clock, so captures of equal-seed runs are byte-identical. Call after the
// topology (and its redirectors) is built; w stays open until the caller
// closes it, after the run.
func (n *Net) StartCapture(w io.Writer) (*Capture, error) {
	c, err := capture.New(w, n.Now)
	if err != nil {
		return nil, err
	}
	n.addFrameTap(c.FrameTap())
	n.addEncapTap(c.CaptureInner)
	return c, nil
}

// StartFlightRecorder attaches a flight recorder to the whole network:
// per-host rings of the last framesPerHost transmitted frames and
// eventsPerHost bus events (<= 0 selects the package defaults). Dump it
// with FlightRecorder.Dump, or arm it with DumpOnFailover/DumpOnFailure.
func (n *Net) StartFlightRecorder(framesPerHost, eventsPerHost int) *FlightRecorder {
	f := capture.NewFlightRecorder(n.Now, framesPerHost, eventsPerHost)
	f.AttachBus(n.bus)
	n.addFrameTap(f.Tap())
	return f
}

// NewSpanCollector subscribes a span collector to the network's bus. Like
// every bus subscriber it enables the relevant emit sites; attach it before
// the traffic it should observe.
func (n *Net) NewSpanCollector() *SpanCollector {
	return tcp.NewSpanCollector(n.bus, 0)
}

// addFrameTap registers t and reinstalls the fabric tap, fanning out to all
// registered taps when there is more than one (the single-tap case stays a
// direct call).
func (n *Net) addFrameTap(t netsim.FrameTap) {
	n.frameTaps = append(n.frameTaps, t)
	switch taps := n.frameTaps; len(taps) {
	case 1:
		n.fab.SetFrameTap(taps[0])
	default:
		n.fab.SetFrameTap(func(from, to *netsim.Node, data []byte) {
			for _, tap := range taps {
				tap(from, to, data)
			}
		})
	}
}

// addEncapTap registers t on every redirector present now (redirectors
// added later are not tapped — start captures after building the topology).
func (n *Net) addEncapTap(t redirector.EncapTap) {
	n.encapTaps = append(n.encapTaps, t)
	var tap redirector.EncapTap
	switch taps := n.encapTaps; len(taps) {
	case 1:
		tap = taps[0]
	default:
		tap = func(inner *ipv4.Packet, host Addr) {
			for _, et := range taps {
				et(inner, host)
			}
		}
	}
	for _, r := range n.redirectors {
		r.rd.SetEncapTap(tap)
	}
}
