package rmp

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"hydranet/internal/core"
	"hydranet/internal/ipv4"
)

// FuzzUnmarshalMessage: management datagrams come off the wire; arbitrary
// bytes must never panic and accepted messages must round-trip. Decoding
// into a dirty scratch message gives exactly what the allocating wrapper
// returns (and leaves the scratch alone on error), and AppendTo behind a
// prefix appends exactly what Marshal returns.
func FuzzUnmarshalMessage(f *testing.F) {
	f.Add((&Message{Type: MsgRegister, Host: 9}).Marshal())
	f.Add((&Message{Type: MsgMirror, ProbeID: 3, Hosts: []ipv4.Addr{1, 2}}).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMessage(data)
		dirty := func() Message {
			return Message{Type: 0xDB, Service: core.ServiceID{Addr: 0xDBDBDBDB, Port: 0xDBDB},
				Host: 0xDBDBDBDB, Gated: true, Metric: 0xDBDB, ProbeID: 0xDBDBDBDB,
				Hosts: []ipv4.Addr{0xDBDBDBDB, 0xDBDBDBDB}}
		}
		scratch := dirty()
		if err2 := scratch.Unmarshal(data); err2 != err {
			t.Fatalf("into-scratch error %v, allocating wrapper %v", err2, err)
		}
		if err != nil {
			if !reflect.DeepEqual(scratch, dirty()) {
				t.Fatalf("rejected datagram modified the scratch: %+v", scratch)
			}
			return
		}
		fixed, fresh := scratch, *m
		fixed.Hosts, fresh.Hosts = nil, nil
		if !reflect.DeepEqual(fixed, fresh) || !slices.Equal(scratch.Hosts, m.Hosts) {
			t.Fatalf("into-scratch decode %+v differs from fresh decode %+v", scratch, *m)
		}
		wire := m.Marshal()
		m2, err := UnmarshalMessage(wire)
		if err != nil {
			t.Fatalf("re-marshal does not parse: %v", err)
		}
		if m2.Type != m.Type || m2.Service != m.Service || m2.Host != m.Host ||
			len(m2.Hosts) != len(m.Hosts) {
			t.Fatal("message round trip changed fields")
		}
		prefix := []byte{0xDB, 0xDB, 0xDB}
		if got := m.AppendTo(prefix); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], wire) {
			t.Fatalf("AppendTo gave % x, Marshal % x", got, wire)
		}
	})
}
