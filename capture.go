package hydranet

import (
	"hydranet/internal/capture"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/redirector"
)

// attachCapture attaches a packet capture to the whole network: every frame
// accepted for transmission on every link (both directions) plus, for each
// redirector present now, the pre-encapsulation inner packet of every
// tunnel copy. A capture built on n.Now timestamps records on the virtual
// clock, so captures of equal-seed runs are byte-identical.
func (n *Net) attachCapture(c *capture.Capture) {
	n.addFrameTap(c.FrameTap())
	n.addEncapTap(c.CaptureInner)
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

// addEncapTap registers t on every redirector present now.
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
