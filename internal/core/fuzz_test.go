package core

import (
	"bytes"
	"testing"

	"hydranet/internal/tcp"
)

// FuzzUnmarshalChainMsg: arbitrary datagrams must never panic the
// acknowledgment-channel parser; decoding into a dirty scratch message gives
// exactly what the allocating wrapper returns (and leaves the scratch alone
// on error); whatever decodes re-encodes to the same bytes through both
// Marshal and MarshalInto.
func FuzzUnmarshalChainMsg(f *testing.F) {
	good := (&ChainMsg{
		Service: ServiceID{Addr: 0xC014E114, Port: 5001},
		Client:  tcp.Endpoint{Addr: 0x0A000001, Port: 40000},
		SndNxt:  0xfffffff0, RcvNxt: 17,
	}).Marshal()
	f.Add(good)
	f.Add(good[:chainMsgLen-1])
	f.Add(append([]byte{chainMsgMagic, chainMsgVersion + 1}, good[2:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalChainMsg(data)
		dirty := ChainMsg{Service: ServiceID{Addr: 0xDBDBDBDB, Port: 0xDBDB}, Client: tcp.Endpoint{Addr: 0xDBDBDBDB, Port: 0xDBDB}, SndNxt: 0xDBDBDBDB, RcvNxt: 0xDBDBDBDB}
		scratch := dirty
		if err2 := scratch.Unmarshal(data); err2 != err {
			t.Fatalf("into-scratch error %v, allocating wrapper %v", err2, err)
		}
		if err != nil {
			if scratch != dirty {
				t.Fatalf("rejected datagram modified the scratch: %+v", scratch)
			}
			return
		}
		if scratch != *msg {
			t.Fatalf("into-scratch decode %+v differs from fresh decode %+v", scratch, *msg)
		}
		into := bytes.Repeat([]byte{0xDB}, chainMsgLen)
		msg.MarshalInto(into)
		if wire := msg.Marshal(); !bytes.Equal(wire, data) || !bytes.Equal(into, data) {
			t.Fatalf("re-encoded % x / % x, decoded from % x", wire, into, data)
		}
	})
}
