package rmp

import (
	"testing"
	"testing/quick"

	"hydranet/internal/core"
	"hydranet/internal/ipv4"
)

func TestMessageRoundTrip(t *testing.T) {
	types := [...]MsgType{MsgRegister, MsgLeave, MsgSuspect, MsgChainSet,
		MsgRegisterScale, MsgPing, MsgMirror}
	f := func(typ uint8, svcAddr uint32, svcPort uint16, host uint32, mode uint8,
		upstream uint32, gated bool, metric uint16, probe uint32, hostsRaw []uint32) bool {
		in := &Message{
			Type:     types[int(typ)%len(types)],
			Service:  core.ServiceID{Addr: ipv4.Addr(svcAddr), Port: svcPort},
			Host:     ipv4.Addr(host),
			Mode:     core.Mode(mode%2 + 1),
			Upstream: ipv4.Addr(upstream),
			Gated:    gated,
		}
		switch in.Type {
		case MsgPing, MsgChainSet:
			in.ProbeID = probe
		case MsgMirror:
			in.ProbeID = probe
			if len(hostsRaw) > 200 {
				hostsRaw = hostsRaw[:200]
			}
			for _, h := range hostsRaw {
				in.Hosts = append(in.Hosts, ipv4.Addr(h))
			}
		default:
			in.Metric = metric
		}
		out, err := UnmarshalMessage(in.Marshal())
		if err != nil {
			return false
		}
		if out.Type != in.Type || out.Service != in.Service || out.Host != in.Host ||
			out.Mode != in.Mode || out.Upstream != in.Upstream || out.Gated != in.Gated ||
			out.Metric != in.Metric || out.ProbeID != in.ProbeID ||
			len(out.Hosts) != len(in.Hosts) {
			return false
		}
		for i := range in.Hosts {
			if out.Hosts[i] != in.Hosts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMessageRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalMessage(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := UnmarshalMessage(make([]byte, msgLen-1)); err == nil {
		t.Error("short accepted")
	}
	b := make([]byte, msgLen)
	for _, typ := range []byte{0, 7, 9, 10, 200} { // 7 and 9 are unassigned
		b[0] = typ
		if _, err := UnmarshalMessage(b); err == nil {
			t.Errorf("type %d accepted", typ)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgRegister: "REGISTER", MsgLeave: "LEAVE", MsgSuspect: "SUSPECT",
		MsgChainSet: "CHAIN-SET", MsgRegisterScale: "REGISTER-SCALE",
		MsgPing: "PING", MsgMirror: "MIRROR",
		7: "MsgType(7)", 9: "MsgType(9)",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}
